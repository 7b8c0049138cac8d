// Package wal implements a segmented, checksummed write-ahead log with
// group commit — the durable append substrate behind the tuning
// service's storage tier. Appends from concurrent callers coalesce into
// batched fsyncs on a single writer goroutine: each caller pays one
// buffered encode plus an amortized fsync, instead of the O(history)
// snapshot rewrite the service previously performed per completed job.
//
// The log is a directory of fixed-header segment files named
// "<index>.wal" in ascending hexadecimal order. A segment rolls once it
// exceeds a size threshold; every process start seals the previous
// generation by opening a fresh segment, so recovery never has to repair
// a tail in place. Records carry a CRC over their type and payload;
// replay stops at the first record that fails verification, which
// truncates a torn tail (the crash window of an in-flight group commit)
// to the last durable prefix. Compaction is the storage layer's job: the
// log only provides Rotate (seal the active segment) and RemoveThrough
// (delete folded segments).
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures Open.
type Options struct {
	// SegmentBytes is the roll threshold: a segment whose size would
	// exceed it is sealed and a new one started (0 = 8 MiB). A single
	// record larger than the threshold still fits — it gets a segment of
	// its own.
	SegmentBytes int64
	// FsyncInterval bounds the group-commit window: once a batch has
	// begun, the writer waits at most this long for more appends to share
	// the fsync (0 = 2ms). The wait is adaptive — a lone appender is
	// flushed immediately; the window only opens when the previous batch
	// proved there is concurrency to harvest.
	FsyncInterval time.Duration
	// MaxBatch caps records per fsync (0 = 256).
	MaxBatch int
	// QueueDepth bounds pending appends (0 = 1024). AppendAsync fails
	// fast with ErrQueueFull at the bound; Append blocks until space or
	// close. Saturated reports when the queue is near the bound, the
	// admission-control signal the job engine sheds load on.
	QueueDepth int
	// NoSync skips the fsync after each batch — the log is then crash-
	// durable only to the extent the OS flushes dirty pages. For tests
	// and benchmarks that measure everything but the disk.
	NoSync bool
	// SyncFunc overrides the per-batch fsync syscall (nil = File.Sync) —
	// a fault-injection and latency-simulation seam for tests.
	SyncFunc func(*os.File) error
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 2 * time.Millisecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
}

// ErrClosed reports an append against a closed log; ErrQueueFull an
// AppendAsync rejected at the queue bound (the caller's record is NOT
// durable — shed or retry); ErrTooLarge a payload beyond MaxRecordBytes.
// The size bound is enforced here, on the write side, because replay
// treats oversized lengths as corruption: a record that slipped past it
// would be written "successfully" and then silently truncate recovery
// at its offset — the worst possible failure mode for a durability
// layer. (It would also overflow the uint32 length field past 4 GiB.)
var (
	ErrClosed    = fmt.Errorf("wal: log closed")
	ErrQueueFull = fmt.Errorf("wal: append queue full")
	ErrTooLarge  = fmt.Errorf("wal: record payload exceeds %d bytes", MaxRecordBytes)
)

// SegmentInfo describes one on-disk segment.
type SegmentInfo struct {
	Index uint64 `json:"index"`
	Bytes int64  `json:"bytes"`
	Path  string `json:"-"`
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	// Segments counts every on-disk segment including the active one;
	// SealedSegments those no longer written to (compaction candidates).
	Segments       int    `json:"segments"`
	SealedSegments int    `json:"sealedSegments"`
	ActiveIndex    uint64 `json:"activeIndex"`
	// DiskBytes is the total size of all segments.
	DiskBytes int64 `json:"diskBytes"`
	// Appends counts records accepted (sync and async); AsyncDropped
	// async appends rejected at the queue bound; AppendErrors records
	// that reached the writer but failed to persist.
	Appends      uint64 `json:"appends"`
	AsyncDropped uint64 `json:"asyncDropped"`
	AppendErrors uint64 `json:"appendErrors"`
	// Fsyncs counts batch commits; Batches==Fsyncs, so Appends/Fsyncs is
	// the achieved group-commit amortization.
	Fsyncs uint64 `json:"fsyncs"`
	// QueueDepth/QueueCap describe the pending-append queue; Saturated
	// mirrors the admission-control probe.
	QueueDepth int  `json:"queueDepth"`
	QueueCap   int  `json:"queueCap"`
	Saturated  bool `json:"saturated"`
}

// request is one unit of writer work: either a framed record to append,
// or a control action (rotate, stop).
type request struct {
	frame  *[]byte // framed record bytes (pooled; writer releases)
	done   chan error
	rotate chan rotateReply
	stop   bool
}

type rotateReply struct {
	sealedThrough uint64
	err           error
}

// Log is a segmented write-ahead log. Open constructs one; Close releases
// it. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	reqs    chan request
	closing chan struct{} // closed by Close: unblocks senders
	done    chan struct{} // closed when the writer exits
	closed  atomic.Bool

	appends      atomic.Uint64
	asyncDropped atomic.Uint64
	appendErrors atomic.Uint64
	fsyncs       atomic.Uint64

	// mu guards the segment bookkeeping shared between the writer and
	// Stats/Segments/RemoveThrough.
	mu          sync.Mutex
	sealed      []SegmentInfo
	activeIndex uint64
	activeSize  int64
	writeErr    error // sticky writer failure

	// writer-goroutine state (no locking needed).
	active        *os.File
	buf           []byte
	lastBatchSize int

	framePool sync.Pool
}

// Open scans dir (creating it if needed), indexes the existing segments,
// and starts a fresh active segment — the previous generation is never
// appended to again, so a torn tail from a crash stays frozen where
// replay can skip it. Call Replay before Open to recover state.
func Open(dir string, opts Options) (*Log, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].Index + 1
	}
	l := &Log{
		dir:     dir,
		opts:    opts,
		reqs:    make(chan request, opts.QueueDepth),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		sealed:  segs,
	}
	l.framePool.New = func() any { b := make([]byte, 0, 512); return &b }
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	go l.run()
	return l, nil
}

// segmentPath renders a segment file name; indexes sort lexically.
func segmentPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.wal", index))
}

// scanSegments lists dir's segments in ascending index order.
func scanSegments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".wal" {
			continue
		}
		idx, err := strconv.ParseUint(name[:len(name)-len(".wal")], 16, 64)
		if err != nil {
			continue // foreign file; not ours to touch
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, SegmentInfo{Index: idx, Bytes: info.Size(), Path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, nil
}

// openSegment creates the segment file with its header and makes it the
// active one. The directory entry is fsynced so the new segment survives
// a crash that follows immediately.
func (l *Log) openSegment(index uint64) error {
	path := segmentPath(l.dir, index)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := appendSegmentHeader(nil)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := l.sync(f); err != nil {
			f.Close()
			return err
		}
		if err := SyncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.active = f
	l.mu.Lock()
	l.activeIndex = index
	l.activeSize = int64(len(hdr))
	l.mu.Unlock()
	mSegments.Set(float64(l.segmentCount()))
	return nil
}

func (l *Log) sync(f *os.File) error {
	if l.opts.SyncFunc != nil {
		return l.opts.SyncFunc(f)
	}
	return f.Sync()
}

// Append durably appends one record: it returns once the record's batch
// has been written and fsynced. Concurrent callers share fsyncs via
// group commit, so the amortized cost under load is one buffered encode
// plus 1/batch of an fsync.
func (l *Log) Append(typ byte, payload []byte) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if len(payload) > MaxRecordBytes {
		return ErrTooLarge
	}
	frame := l.encode(typ, payload)
	req := request{frame: frame, done: make(chan error, 1)}
	select {
	case l.reqs <- req:
	case <-l.closing:
		l.release(frame)
		return ErrClosed
	}
	select {
	case err := <-req.done:
		return err
	case <-l.done:
		// The writer exited; it may or may not have handled the request.
		select {
		case err := <-req.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// AppendAsync appends one record without waiting for durability: the
// record rides the next group commit. At the queue bound it fails fast
// with ErrQueueFull instead of blocking — the telemetry contract (drop,
// don't stall the hot path).
func (l *Log) AppendAsync(typ byte, payload []byte) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if len(payload) > MaxRecordBytes {
		return ErrTooLarge
	}
	frame := l.encode(typ, payload)
	select {
	case l.reqs <- frameOnly(frame):
		return nil
	default:
		l.release(frame)
		l.asyncDropped.Add(1)
		mAsyncDropped.Inc()
		return ErrQueueFull
	}
}

func frameOnly(frame *[]byte) request { return request{frame: frame} }

func (l *Log) encode(typ byte, payload []byte) *[]byte {
	bp := l.framePool.Get().(*[]byte)
	*bp = AppendRecord((*bp)[:0], typ, payload)
	return bp
}

func (l *Log) release(frame *[]byte) {
	if frame != nil {
		l.framePool.Put(frame)
	}
}

// Sync forces any queued appends to disk before returning.
func (l *Log) Sync() error { return l.Append(typeNoop, nil) }

// typeNoop is the reserved record type Sync appends; Replay drops it.
const typeNoop = 0

// Rotate seals the active segment and opens the next one, returning the
// highest sealed index — the compactor's fold boundary: every record in
// segments <= sealedThrough is on disk before Rotate returns.
func (l *Log) Rotate() (sealedThrough uint64, err error) {
	if l.closed.Load() {
		return 0, ErrClosed
	}
	req := request{rotate: make(chan rotateReply, 1)}
	select {
	case l.reqs <- req:
	case <-l.closing:
		return 0, ErrClosed
	}
	select {
	case rep := <-req.rotate:
		return rep.sealedThrough, rep.err
	case <-l.done:
		select {
		case rep := <-req.rotate:
			return rep.sealedThrough, rep.err
		default:
			return 0, ErrClosed
		}
	}
}

// RemoveThrough deletes sealed segments with index <= through (the
// compactor's tail drop). The active segment is never removed.
func (l *Log) RemoveThrough(through uint64) error {
	l.mu.Lock()
	var keep, drop []SegmentInfo
	for _, s := range l.sealed {
		if s.Index <= through {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	var firstErr error
	for _, s := range drop {
		if err := os.Remove(s.Path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if len(drop) > 0 && !l.opts.NoSync {
		if err := SyncDir(l.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	mSegments.Set(float64(l.segmentCount()))
	return firstErr
}

func (l *Log) segmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Saturated reports whether the append queue is at or beyond 90% of its
// bound — the backpressure signal admission control sheds load on.
func (l *Log) Saturated() bool {
	return len(l.reqs)*10 >= cap(l.reqs)*9
}

// Stats summarizes the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{
		Segments:       len(l.sealed) + 1,
		SealedSegments: len(l.sealed),
		ActiveIndex:    l.activeIndex,
		DiskBytes:      l.activeSize,
	}
	for _, s := range l.sealed {
		st.DiskBytes += s.Bytes
	}
	l.mu.Unlock()
	st.Appends = l.appends.Load()
	st.AsyncDropped = l.asyncDropped.Load()
	st.AppendErrors = l.appendErrors.Load()
	st.Fsyncs = l.fsyncs.Load()
	st.QueueDepth = len(l.reqs)
	st.QueueCap = cap(l.reqs)
	st.Saturated = l.Saturated()
	return st
}

// Close flushes pending appends, fsyncs, and releases the writer.
// Appends after Close fail with ErrClosed. Idempotent.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		<-l.done
		return nil
	}
	close(l.closing)
	// The stop request queues behind pending appends; the writer drains
	// everything buffered before exiting.
	l.reqs <- request{stop: true}
	<-l.done
	l.mu.Lock()
	err := l.writeErr
	l.mu.Unlock()
	return err
}

// run is the writer goroutine: it collects batches of appends, writes
// them to the active segment, fsyncs once per batch, and acknowledges
// every sync waiter — classic group commit.
func (l *Log) run() {
	defer close(l.done)
	defer func() {
		if l.active != nil {
			l.active.Close()
		}
	}()
	var batch []request
	var timer *time.Timer
	for {
		req, ok := <-l.reqs
		if !ok {
			return
		}
		if req.stop {
			l.drainAndExit()
			return
		}
		if req.rotate != nil {
			l.handleRotate(req)
			continue
		}
		batch = append(batch[:0], req)
		// Adaptive window: harvest whatever is already queued; only hold
		// the batch open for the fsync window when the previous batch
		// proved there is concurrency worth waiting for.
		stop := l.collect(&batch, &timer)
		l.flush(batch)
		if stop != nil {
			if stop.stop {
				l.drainAndExit()
				return
			}
			l.handleRotate(*stop)
		}
	}
}

// collect fills *batch from the queue up to MaxBatch, holding the batch
// open for at most FsyncInterval when recent traffic suggests more
// appends are coming. It returns a pending control request, if one was
// encountered (the batch is flushed before the control acts).
func (l *Log) collect(batch *[]request, timer **time.Timer) *request {
	// First: non-blocking drain of whatever queued while the last batch
	// was being written — natural group commit.
	for len(*batch) < l.opts.MaxBatch {
		select {
		case r := <-l.reqs:
			if r.stop || r.rotate != nil {
				return &r
			}
			*batch = append(*batch, r)
		default:
			goto window
		}
	}
	return nil
window:
	if l.lastBatchSize <= 1 {
		return nil // lone appender: flush immediately, don't tax latency
	}
	if *timer == nil {
		*timer = time.NewTimer(l.opts.FsyncInterval)
	} else {
		(*timer).Reset(l.opts.FsyncInterval)
	}
	for len(*batch) < l.opts.MaxBatch {
		select {
		case r := <-l.reqs:
			if r.stop || r.rotate != nil {
				stopTimer(*timer)
				return &r
			}
			*batch = append(*batch, r)
		case <-(*timer).C:
			return nil
		}
	}
	stopTimer(*timer)
	return nil
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// drainAndExit flushes everything still buffered in the queue, then
// returns; the deferred close(l.done) releases Close.
func (l *Log) drainAndExit() {
	var batch []request
	for {
		select {
		case r := <-l.reqs:
			if r.stop {
				continue
			}
			if r.rotate != nil {
				l.flush(batch)
				batch = batch[:0]
				l.handleRotate(r)
				continue
			}
			batch = append(batch, r)
			if len(batch) >= l.opts.MaxBatch {
				l.flush(batch)
				batch = batch[:0]
			}
		default:
			l.flush(batch)
			return
		}
	}
}

func (l *Log) handleRotate(req request) {
	sealedThrough := l.sealActive()
	err := l.takeWriteErr()
	if err == nil {
		err = l.openSegment(sealedThrough + 1)
		if err != nil {
			l.setWriteErr(err)
		}
	}
	req.rotate <- rotateReply{sealedThrough: sealedThrough, err: err}
}

// sealActive flushes and closes the active segment, recording it as
// sealed, and returns its index.
func (l *Log) sealActive() uint64 {
	if !l.opts.NoSync && l.active != nil {
		if err := l.sync(l.active); err != nil {
			l.setWriteErr(err)
		}
	}
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.mu.Lock()
	idx := l.activeIndex
	l.sealed = append(l.sealed, SegmentInfo{Index: idx, Bytes: l.activeSize, Path: segmentPath(l.dir, idx)})
	l.mu.Unlock()
	return idx
}

// flush writes the batch to the active segment, rolling it at the size
// threshold, fsyncs once, and acknowledges every waiter.
func (l *Log) flush(batch []request) {
	if len(batch) == 0 {
		return
	}
	l.lastBatchSize = len(batch)
	var err error
	if e := l.takeWriteErr(); e != nil {
		err = e // sticky: a failed segment stays failed
	} else {
		err = l.writeBatch(batch)
	}
	if err != nil {
		l.setWriteErr(err)
		l.appendErrors.Add(uint64(len(batch)))
		mAppendErrors.Add(float64(len(batch)))
	} else {
		l.appends.Add(uint64(len(batch)))
		l.fsyncs.Add(1)
		mAppends.Add(float64(len(batch)))
		mBatchRecords.Observe(float64(len(batch)))
	}
	for _, r := range batch {
		l.release(r.frame)
		if r.done != nil {
			r.done <- err
		}
	}
	mQueueDepth.Set(float64(len(l.reqs)))
}

func (l *Log) writeBatch(batch []request) error {
	size := int64(0)
	for _, r := range batch {
		size += int64(len(*r.frame))
	}
	l.mu.Lock()
	roll := l.activeSize > segHeaderSize && l.activeSize+size > l.opts.SegmentBytes
	l.mu.Unlock()
	if roll {
		idx := l.sealActive()
		if err := l.takeWriteErr(); err != nil {
			return err
		}
		if err := l.openSegment(idx + 1); err != nil {
			return err
		}
	}
	l.buf = l.buf[:0]
	for _, r := range batch {
		l.buf = append(l.buf, *r.frame...)
	}
	if _, err := l.active.Write(l.buf); err != nil {
		return err
	}
	if !l.opts.NoSync {
		start := time.Now()
		if err := l.sync(l.active); err != nil {
			return err
		}
		el := time.Since(start).Seconds()
		mFsyncs.Inc()
		mFsyncSeconds.Observe(el)
	}
	l.mu.Lock()
	l.activeSize += size
	mDiskAdd := l.activeSize
	for _, s := range l.sealed {
		mDiskAdd += s.Bytes
	}
	l.mu.Unlock()
	mDiskBytes.Set(float64(mDiskAdd))
	return nil
}

func (l *Log) setWriteErr(err error) {
	l.mu.Lock()
	if l.writeErr == nil {
		l.writeErr = err
	}
	l.mu.Unlock()
}

func (l *Log) takeWriteErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErr
}

// SyncDir fsyncs a directory, making renames and file creations beneath
// it durable — the missing half of the temp-and-rename idiom.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
