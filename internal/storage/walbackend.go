package storage

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seamlesstune/internal/history"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/wal"
)

// Storage-tier metrics (the WAL's own append/fsync families live in
// internal/wal).
var (
	mRecords = obs.Default().Counter("storage_records_total",
		"History records appended to the storage backend.")
	mEvents = obs.Default().Counter("storage_events_total",
		"Telemetry events appended to the storage backend.")
	mCompactions = obs.Default().Counter("storage_compactions_total",
		"Completed compactions (cold segments folded into a snapshot).")
	mRecoveredRecords = obs.Default().Gauge("storage_recovered_records",
		"History records recovered at the last startup.")
	mRecoverySeconds = obs.Default().Gauge("storage_recovery_seconds",
		"Wall-clock time of the last startup recovery.")
	// Persist-sink loss is first-class telemetry: the alert engine's
	// default rules watch these to flag observability degradation.
	mEventsDropped = obs.Default().Counter("storage_events_dropped_total",
		"Telemetry events shed at the storage append queue bound.")
	mTelemetry = obs.Default().Counter("storage_telemetry_blocks_total",
		"Telemetry rollup blocks appended to the storage backend.")
	mTelemetryDropped = obs.Default().Counter("storage_telemetry_dropped_total",
		"Telemetry rollup blocks shed at the storage append queue bound.")
)

// walBackend persists history records and telemetry events as O(1)
// appends to a segmented write-ahead log, with snapshot-record
// compaction bounding disk usage and recovery time.
type walBackend struct {
	cfg Config
	log *wal.Log

	records          atomic.Int64
	events           atomic.Int64
	errors           atomic.Int64
	eventsDropped    atomic.Int64
	telemetry        atomic.Int64
	telemetryDropped atomic.Int64
	compactions      atomic.Int64
	lastCompact      atomic.Int64

	// mu guards the recovery-bound fields; compactMu serializes Compact
	// itself — the admin endpoint and the background compactor may invoke
	// it concurrently, and an overlapped fold could append an older
	// snapshot after a newer one, regressing the recovered event tail.
	mu             sync.Mutex
	compactMu      sync.Mutex
	store          *history.Store
	recovered      recoveryInfo
	compactStarted bool
	recoveredTel   [][]byte
	telSource      func() [][]byte

	ring *eventRing

	bufPool sync.Pool

	stopCompact chan struct{}
	compactDone chan struct{}
	closeOnce   sync.Once
}

type recoveryInfo struct {
	records   int
	events    int
	telemetry int
	seconds   float64
}

// walSnapshot is the payload of a compaction snapshot record: the whole
// history through MaxSeq plus the retained tail of the event stream.
// Records replayed after a snapshot supersede it; records before it are
// already folded in.
//
// A history too large for one WAL record is chunked: Part/Parts frame a
// run of consecutive snapshot records, each carrying a slice of the
// history (ascending, with the event tail and the telemetry dump on the
// last part) and all sharing MaxSeq. Replay applies a chunked snapshot
// only once every part has arrived; an incomplete run — the crash window
// of an interrupted compaction — is discarded, which loses nothing
// because the folded segments are only removed after the final part is
// durable. Zero values (absent fields) mean the legacy single-record
// form.
type walSnapshot struct {
	MaxSeq  int              `json:"maxSeq"`
	Records []history.Record `json:"records"`
	Events  []obs.Event      `json:"events,omitempty"`
	// Telemetry is the full sealed-rollup dump of the telemetry store at
	// compaction time (base64-encoded blocks); it rides the final part
	// alongside Events.
	Telemetry [][]byte `json:"telemetry,omitempty"`
	Part      int      `json:"part,omitempty"`
	Parts     int      `json:"parts,omitempty"`
}

// walSnapshotWire is walSnapshot's encode-side twin: records are
// pre-marshaled so chunking can budget bytes without marshaling twice.
type walSnapshotWire struct {
	MaxSeq    int               `json:"maxSeq"`
	Records   []json.RawMessage `json:"records"`
	Events    []obs.Event       `json:"events,omitempty"`
	Telemetry [][]byte          `json:"telemetry,omitempty"`
	Part      int               `json:"part,omitempty"`
	Parts     int               `json:"parts,omitempty"`
}

// snapshotChunkBytes is the target payload size of one snapshot chunk —
// comfortably under wal.MaxRecordBytes so framing and JSON overhead can
// never push a chunk past the write-side bound. Variable for tests.
var snapshotChunkBytes = 8 << 20

func openWAL(cfg Config) (Backend, error) {
	if cfg.CompactSegments == 0 {
		cfg.CompactSegments = 4
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 15 * time.Second
	}
	if cfg.EventRetention <= 0 {
		cfg.EventRetention = 4096
	}
	l, err := wal.Open(cfg.DataDir, wal.Options{
		SegmentBytes:  cfg.SegmentBytes,
		FsyncInterval: cfg.FsyncInterval,
		NoSync:        cfg.NoSync,
	})
	if err != nil {
		return nil, fmt.Errorf("storage: opening wal %s: %w", cfg.DataDir, err)
	}
	w := &walBackend{
		cfg:         cfg,
		log:         l,
		ring:        newEventRing(cfg.EventRetention),
		stopCompact: make(chan struct{}),
		compactDone: make(chan struct{}),
	}
	w.bufPool.New = func() any { b := make([]byte, 0, 512); return &b }
	return w, nil
}

func (w *walBackend) Name() string { return "wal" }

// Recover replays the WAL — latest snapshot plus every live segment —
// into st. Torn tails are tolerated (only unacknowledged bytes are ever
// lost); records that appear both in a snapshot and in a surviving
// segment (the crash window between snapshot append and tail deletion)
// deduplicate by sequence number, so recovery is idempotent.
func (w *walBackend) Recover(st *history.Store) ([]obs.Event, error) {
	start := time.Now()
	recs := make(map[int]history.Record)
	maxSnapSeq := -1
	var events []obs.Event
	var telemetry [][]byte
	// applySnap folds one complete snapshot: it replaces the replayed
	// records with the snapshot's, keeping only newer records already
	// replayed (defensive — they can only exist if appends raced the
	// snapshot into earlier segments), and resets the event and
	// telemetry tails.
	applySnap := func(snap *walSnapshot) {
		kept := make(map[int]history.Record, len(snap.Records))
		for _, r := range snap.Records {
			kept[r.Seq] = r
		}
		for seq, r := range recs {
			if seq > snap.MaxSeq {
				kept[seq] = r
			}
		}
		recs = kept
		maxSnapSeq = snap.MaxSeq
		events = append(events[:0], snap.Events...)
		telemetry = append(telemetry[:0], snap.Telemetry...)
	}
	// pending assembles a chunked snapshot across consecutive parts; it
	// is applied only when complete, so a compaction that crashed mid-
	// chunk leaves the pre-fold records (still on disk) authoritative.
	var pending *walSnapshot
	_, err := wal.Replay(w.cfg.DataDir, func(_ uint64, typ byte, payload []byte) error {
		switch typ {
		case recHistory:
			var r history.Record
			if json.Unmarshal(payload, &r) != nil {
				w.errors.Add(1) // checksummed but undecodable: count, skip
				return nil
			}
			if r.Seq > maxSnapSeq {
				if _, dup := recs[r.Seq]; !dup {
					recs[r.Seq] = r
				}
			}
		case recEvent:
			var e obs.Event
			if json.Unmarshal(payload, &e) != nil {
				w.errors.Add(1)
				return nil
			}
			events = append(events, e)
		case recTelemetry:
			// Replay may reuse the payload buffer across records: copy.
			telemetry = append(telemetry, append([]byte(nil), payload...))
		case recSnapshot:
			var snap walSnapshot
			if json.Unmarshal(payload, &snap) != nil {
				w.errors.Add(1)
				pending = nil
				return nil
			}
			if snap.Parts <= 1 {
				pending = nil
				applySnap(&snap)
				return nil
			}
			// One part of a chunked snapshot: extend the pending run if
			// it is the expected next part, otherwise abandon the run
			// (the pre-fold records are still in the surviving segments).
			switch {
			case snap.Part == 1:
				pending = &snap
			case pending != nil && snap.Part == pending.Part+1 &&
				snap.Parts == pending.Parts && snap.MaxSeq == pending.MaxSeq:
				pending.Part = snap.Part
				pending.Records = append(pending.Records, snap.Records...)
				if len(snap.Events) > 0 {
					pending.Events = snap.Events
				}
				if len(snap.Telemetry) > 0 {
					pending.Telemetry = snap.Telemetry
				}
			default:
				pending = nil
				w.errors.Add(1)
			}
			if pending != nil && pending.Part == pending.Parts {
				applySnap(pending)
				pending = nil
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: replaying wal %s: %w", w.cfg.DataDir, err)
	}
	ordered := make([]history.Record, 0, len(recs))
	for _, r := range recs {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	st.Reset(ordered)
	// Seed the retention ring so the next compaction snapshot carries the
	// recovered event tail forward instead of dropping it.
	for _, e := range events {
		w.ring.push(e)
	}
	w.mu.Lock()
	w.store = st
	w.recoveredTel = telemetry
	w.recovered = recoveryInfo{
		records:   len(ordered),
		events:    len(events),
		telemetry: len(telemetry),
		seconds:   time.Since(start).Seconds(),
	}
	w.mu.Unlock()
	mRecoveredRecords.Set(float64(len(ordered)))
	mRecoverySeconds.Set(w.recovered.seconds)
	if w.cfg.CompactSegments > 0 {
		w.mu.Lock()
		w.compactStarted = true
		w.mu.Unlock()
		go w.compactLoop()
	}
	return events, nil
}

// AppendRecord durably appends one history record: a buffered JSON
// encode plus a group-committed fsync shared with concurrent appends.
func (w *walBackend) AppendRecord(r history.Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		w.errors.Add(1)
		return err
	}
	if err := w.log.Append(recHistory, payload); err != nil {
		w.errors.Add(1)
		return err
	}
	w.records.Add(1)
	mRecords.Inc()
	return nil
}

// AppendEvent appends one telemetry event asynchronously: it rides the
// next group commit and is shed (counted) at the queue bound rather than
// stalling the publish hot path.
func (w *walBackend) AppendEvent(e obs.Event) error {
	bp := w.bufPool.Get().(*[]byte)
	buf := e.AppendJSONL((*bp)[:0])
	err := w.log.AppendAsync(recEvent, buf)
	*bp = buf
	w.bufPool.Put(bp)
	if err != nil {
		w.eventsDropped.Add(1)
		mEventsDropped.Inc()
		return err
	}
	w.ring.push(e)
	w.events.Add(1)
	mEvents.Inc()
	return nil
}

// AppendTelemetry appends one rollup block asynchronously, shedding
// (counted) at the queue bound like AppendEvent does.
func (w *walBackend) AppendTelemetry(block []byte) error {
	if err := w.log.AppendAsync(recTelemetry, block); err != nil {
		w.telemetryDropped.Add(1)
		mTelemetryDropped.Inc()
		return err
	}
	w.telemetry.Add(1)
	mTelemetry.Inc()
	return nil
}

// RecoveredTelemetry returns the rollup blocks the last Recover found.
func (w *walBackend) RecoveredTelemetry() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recoveredTel
}

// SetTelemetrySource installs the compaction-time rollup dump hook.
func (w *walBackend) SetTelemetrySource(fn func() [][]byte) {
	w.mu.Lock()
	w.telSource = fn
	w.mu.Unlock()
}

// FlushEvents syncs the log; the events themselves were appended as they
// were published.
func (w *walBackend) FlushEvents([]obs.Event) error { return w.log.Sync() }

// Saturated reports the WAL queue's admission state.
func (w *walBackend) Saturated() (bool, time.Duration) {
	return w.log.Saturated(), time.Second
}

// Compact folds all sealed segments into a snapshot — the full history
// plus the retained event tail, chunked into as many records as its size
// requires — then deletes them, bounding disk usage and recovery time.
// Crash-safe at every step: the folded segments are removed only after
// every chunk has appended durably, and until then replay deduplicates
// against (or, for an incomplete chunk run, discards) the snapshot.
// Concurrent invocations serialize.
func (w *walBackend) Compact() error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	w.mu.Lock()
	st := w.store
	w.mu.Unlock()
	if st == nil {
		return fmt.Errorf("storage: compact before recover")
	}
	sealedThrough, err := w.log.Rotate()
	if err != nil {
		return err
	}
	records := st.Query(history.Filter{})
	maxSeq := -1
	raw := make([]json.RawMessage, len(records))
	for i, r := range records {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		if raw[i], err = json.Marshal(r); err != nil {
			return err
		}
	}
	// Chunk by byte budget so no snapshot record outgrows the WAL's
	// write-side bound; the event tail rides the final chunk.
	chunks := [][]json.RawMessage{nil}
	chunkBytes := 0
	for _, rm := range raw {
		last := len(chunks) - 1
		if len(chunks[last]) > 0 && chunkBytes+len(rm) > snapshotChunkBytes {
			chunks = append(chunks, nil)
			last++
			chunkBytes = 0
		}
		chunks[last] = append(chunks[last], rm)
		chunkBytes += len(rm) + 1
	}
	parts := len(chunks)
	for i, c := range chunks {
		snap := walSnapshotWire{MaxSeq: maxSeq, Records: c, Part: i + 1, Parts: parts}
		if parts == 1 {
			snap.Part, snap.Parts = 0, 0 // legacy single-record form
		}
		if i == parts-1 {
			snap.Events = w.ring.snapshot()
			w.mu.Lock()
			src := w.telSource
			w.mu.Unlock()
			if src != nil {
				// The rollup dump replaces every recTelemetry record in the
				// folded segments: replay applies the snapshot's blocks and
				// then any blocks appended after it.
				snap.Telemetry = src()
			}
		}
		payload, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		if err := w.log.Append(recSnapshot, payload); err != nil {
			return err
		}
	}
	if err := w.log.RemoveThrough(sealedThrough); err != nil {
		return err
	}
	w.compactions.Add(1)
	w.lastCompact.Store(time.Now().Unix())
	mCompactions.Inc()
	return nil
}

// compactLoop is the background compactor: it folds once the sealed
// segment count crosses the configured threshold.
func (w *walBackend) compactLoop() {
	defer close(w.compactDone)
	ticker := time.NewTicker(w.cfg.CompactEvery)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCompact:
			return
		case <-ticker.C:
			if w.log.Stats().SealedSegments >= w.cfg.CompactSegments {
				if err := w.Compact(); err != nil {
					w.errors.Add(1)
				}
			}
		}
	}
}

func (w *walBackend) Stats() Stats {
	ls := w.log.Stats()
	w.mu.Lock()
	rec := w.recovered
	started := w.store != nil
	w.mu.Unlock()
	st := Stats{
		Backend:            "wal",
		Dir:                w.cfg.DataDir,
		Records:            w.records.Load(),
		Events:             w.events.Load(),
		Errors:             w.errors.Load(),
		EventsDropped:      w.eventsDropped.Load(),
		TelemetryBlocks:    w.telemetry.Load(),
		TelemetryDropped:   w.telemetryDropped.Load(),
		Segments:           ls.Segments,
		SealedSegments:     ls.SealedSegments,
		ActiveSegment:      ls.ActiveIndex,
		DiskBytes:          ls.DiskBytes,
		QueueDepth:         ls.QueueDepth,
		QueueCap:           ls.QueueCap,
		Saturated:          ls.Saturated,
		Fsyncs:             ls.Fsyncs,
		Compactions:        w.compactions.Load(),
		LastCompactionUnix: w.lastCompact.Load(),
	}
	if started {
		st.RecoveredRecords = rec.records
		st.RecoveredEvents = rec.events
		st.RecoveredTelemetry = rec.telemetry
		st.RecoverySeconds = rec.seconds
	}
	return st
}

// Close stops the compactor and flushes and closes the log. Idempotent
// and safe for concurrent callers; only the first call reports the
// close error.
func (w *walBackend) Close() error {
	var err error
	w.closeOnce.Do(func() {
		w.mu.Lock()
		started := w.compactStarted
		w.mu.Unlock()
		close(w.stopCompact)
		if started {
			<-w.compactDone
		}
		err = w.log.Close()
	})
	return err
}

// eventRing retains the most recent events for compaction snapshots.
type eventRing struct {
	mu  sync.Mutex
	buf []obs.Event
	n   uint64
}

func newEventRing(capacity int) *eventRing {
	return &eventRing{buf: make([]obs.Event, capacity)}
}

func (r *eventRing) push(e obs.Event) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
	r.mu.Unlock()
}

func (r *eventRing) snapshot() []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	first := uint64(0)
	if r.n > size {
		first = r.n - size
	}
	out := make([]obs.Event, 0, r.n-first)
	for i := first; i < r.n; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}
