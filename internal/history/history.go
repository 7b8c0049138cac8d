// Package history implements the provider-side execution-history store
// the paper's vision rests on (§IV-C): every workload execution — across
// tenants, cloud configurations and DISC configurations — is recorded
// with its observed metrics, so the tuning service can characterize
// workloads, transfer knowledge between them, and detect the need for
// re-tuning. The store is safe for concurrent use and loads from JSON.
package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/spark"
)

// Metrics are the provider-observable facts of one execution — what a
// cloud can measure without understanding the workload.
type Metrics struct {
	ShuffleReadBytes  int64   `json:"shuffleReadBytes"`
	ShuffleWriteBytes int64   `json:"shuffleWriteBytes"`
	SpillBytes        int64   `json:"spillBytes"`
	GCSeconds         float64 `json:"gcSeconds"`
	Executors         int     `json:"executors"`
	Stages            int     `json:"stages"`
}

// MetricsFromResult extracts metrics from a simulated run.
func MetricsFromResult(res spark.Result) Metrics {
	return Metrics{
		ShuffleReadBytes:  res.TotalShuffleRead,
		ShuffleWriteBytes: res.TotalShuffleWrite,
		SpillBytes:        res.TotalSpillBytes,
		GCSeconds:         res.TotalGCSeconds,
		Executors:         res.Executors,
		Stages:            len(res.Stages),
	}
}

// Record is one execution history entry.
type Record struct {
	Seq        int              `json:"seq"`
	Tenant     string           `json:"tenant"`
	Workload   string           `json:"workload"`
	InputBytes int64            `json:"inputBytes"`
	Cluster    string           `json:"cluster"`
	Config     confspace.Config `json:"config"`
	RuntimeS   float64          `json:"runtimeS"`
	CostUSD    float64          `json:"costUSD"`
	Failed     bool             `json:"failed"`
	Reason     string           `json:"reason,omitempty"`
	Metrics    Metrics          `json:"metrics"`
}

// Filter selects records in queries. Zero fields match everything.
type Filter struct {
	Tenant        string
	Workload      string
	SucceededOnly bool
	// MaxN limits the result to the most recent N records (0 = all).
	MaxN int
}

func (f Filter) matches(r Record) bool {
	if f.Tenant != "" && r.Tenant != f.Tenant {
		return false
	}
	if f.Workload != "" && r.Workload != f.Workload {
		return false
	}
	if f.SucceededOnly && r.Failed {
		return false
	}
	return true
}

// numShards is the fixed shard count. Records are distributed by a hash
// of their workload key, so concurrent tuning sessions of distinct
// tenants almost never contend on the same lock, while the dominant
// query shape — "this tenant's runs of this workload" — touches exactly
// one shard.
const numShards = 16

// shard is one independently locked slice of the history, grouped by
// workload key: each key's records are one slice in ascending Seq order
// (Append assigns the sequence number while holding the shard lock).
// The per-key slices are the only copy of a record.
type shard struct {
	mu   sync.RWMutex
	keys map[WorkloadKey][]Record
}

// Store is an append-only, concurrency-safe execution history, sharded
// and grouped by workload key. The zero value is ready to use.
type Store struct {
	nextSeq atomic.Int64
	count   atomic.Int64
	// gen counts Resets. It is written with every shard write-locked and
	// read under any one shard lock, so a Version read together with a
	// key's records is consistent with them.
	gen uint64
	// persist, when set, observes every appended record (with its
	// assigned sequence number) — the storage tier's write-ahead hook.
	persist atomic.Pointer[func(Record)]
	shards  [numShards]shard
}

// Version identifies the contents of one key's history: records are only
// ever appended between Resets, so two reads of a key with equal
// Versions saw the same records.
type Version struct {
	Gen uint64 // the store's Reset count
	Len int    // the key's record count
}

// SetPersist installs fn to be called after every Append with the
// appended record (sequence number assigned, config cloned). Passing nil
// removes the hook. The call happens outside the shard lock, so fn may
// block (e.g. on a group-committed fsync) without stalling other shards.
func (s *Store) SetPersist(fn func(Record)) {
	if fn == nil {
		s.persist.Store(nil)
		return
	}
	s.persist.Store(&fn)
}

// shardFor maps a (tenant, workload) pair to its shard.
func (s *Store) shardFor(tenant, workload string) *shard {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(workload))
	return &s.shards[h.Sum32()%numShards]
}

// add files r under its key; the caller holds sh's write lock.
func (sh *shard) add(r Record) {
	if sh.keys == nil {
		sh.keys = make(map[WorkloadKey][]Record)
	}
	k := WorkloadKey{Tenant: r.Tenant, Workload: r.Workload}
	sh.keys[k] = append(sh.keys[k], r)
}

// Append adds a record, assigning its sequence number, and returns it.
func (s *Store) Append(r Record) Record {
	if r.Config != nil {
		r.Config = r.Config.Clone()
	}
	sh := s.shardFor(r.Tenant, r.Workload)
	sh.mu.Lock()
	r.Seq = int(s.nextSeq.Add(1) - 1)
	sh.add(r)
	sh.mu.Unlock()
	s.count.Add(1)
	if fn := s.persist.Load(); fn != nil {
		(*fn)(r)
	}
	return r
}

// Len returns the number of records.
func (s *Store) Len() int { return int(s.count.Load()) }

// View runs fn on one key's records, in Seq order, without copying them,
// together with the Version they make up. fn runs under the shard's read
// lock: it must not keep recs (or anything inside them, such as a Config
// map) after it returns, must not modify them, and must not call back
// into the store for writing. A key with no records passes nil.
func (s *Store) View(tenant, workload string, fn func(recs []Record, v Version)) {
	sh := s.shardFor(tenant, workload)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	recs := sh.keys[WorkloadKey{Tenant: tenant, Workload: workload}]
	fn(recs, Version{Gen: s.gen, Len: len(recs)})
}

// Query returns matching records in insertion order (copies). Filters
// naming both a tenant and a workload read a single key; broader filters
// merge every matching key by Seq, taking at most MaxN tail records from
// each when MaxN is set.
func (s *Store) Query(f Filter) []Record {
	var out []Record
	if f.Tenant != "" && f.Workload != "" {
		s.View(f.Tenant, f.Workload, func(recs []Record, _ Version) {
			out = f.tail(recs, nil)
		})
	} else {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			for k, recs := range sh.keys {
				if f.matchesKey(k) {
					out = f.tail(recs, out)
				}
			}
			sh.mu.RUnlock()
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
		if f.MaxN > 0 && len(out) > f.MaxN {
			out = out[len(out)-f.MaxN:]
		}
	}
	for i := range out {
		if out[i].Config != nil {
			out[i].Config = out[i].Config.Clone()
		}
	}
	return out
}

func (f Filter) matchesKey(k WorkloadKey) bool {
	return (f.Tenant == "" || k.Tenant == f.Tenant) && (f.Workload == "" || k.Workload == f.Workload)
}

// tail appends to out the records of one key's Seq-ordered slice that
// pass f — the last MaxN of them when MaxN is set — in Seq order.
func (f Filter) tail(recs, out []Record) []Record {
	if f.MaxN <= 0 {
		for _, r := range recs {
			if f.matches(r) {
				out = append(out, r)
			}
		}
		return out
	}
	lo := len(recs)
	for n := 0; lo > 0 && n < f.MaxN; {
		lo--
		if f.matches(recs[lo]) {
			n++
		}
	}
	for _, r := range recs[lo:] {
		if f.matches(r) {
			out = append(out, r)
		}
	}
	return out
}

// Workloads returns the distinct (tenant, workload) pairs present, in
// first-appearance order.
func (s *Store) Workloads() []WorkloadKey {
	type first struct {
		key WorkloadKey
		seq int
	}
	var keys []first
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, recs := range sh.keys {
			keys = append(keys, first{k, recs[0].Seq})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].seq < keys[j].seq })
	out := make([]WorkloadKey, len(keys))
	for i, k := range keys {
		out[i] = k.key
	}
	return out
}

// WorkloadKey identifies one tenant's workload.
type WorkloadKey struct {
	Tenant   string `json:"tenant"`
	Workload string `json:"workload"`
}

// String renders "tenant/workload".
func (k WorkloadKey) String() string { return k.Tenant + "/" + k.Workload }

// Best returns the fastest successful record matching f and whether one
// exists.
func (s *Store) Best(f Filter) (Record, bool) {
	f.SucceededOnly = true
	recs := s.Query(f)
	if len(recs) == 0 {
		return Record{}, false
	}
	best := recs[0]
	for _, r := range recs[1:] {
		if r.RuntimeS < best.RuntimeS {
			best = r
		}
	}
	return best, true
}

// ErrBadSnapshot reports a malformed serialized store.
var ErrBadSnapshot = errors.New("history: malformed snapshot")

// lockAll write-locks every shard in index order (the consistent order
// prevents deadlock against concurrent whole-store operations) and
// returns the matching unlock.
func (s *Store) lockAll() func() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}
}

// Load replaces the store's contents from a JSON array of records. The
// sequence numbers must be distinct: they are the records' identity in
// the storage tier.
func (s *Store) Load(r io.Reader) error {
	var records []Record
	if err := json.NewDecoder(r).Decode(&records); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	seen := make(map[int]bool, len(records))
	for _, rec := range records {
		if seen[rec.Seq] {
			return fmt.Errorf("%w: duplicate seq %d", ErrBadSnapshot, rec.Seq)
		}
		seen[rec.Seq] = true
	}
	s.Reset(records)
	return nil
}

// Reset replaces the store's contents with records — the recovery
// entry point — and starts a new generation, so every key's Version
// changes. Records may arrive in any order; they land under their key in
// ascending Seq order and the next sequence number continues past the
// highest seen. The persist hook is not called: these records were
// already persisted.
func (s *Store) Reset(records []Record) {
	unlock := s.lockAll()
	defer unlock()
	for i := range s.shards {
		s.shards[i].keys = nil
	}
	s.gen++
	nextSeq := int64(0)
	for _, rec := range records {
		s.shardFor(rec.Tenant, rec.Workload).add(rec)
		if int64(rec.Seq) >= nextSeq {
			nextSeq = int64(rec.Seq) + 1
		}
	}
	for i := range s.shards {
		for _, recs := range s.shards[i].keys {
			sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
		}
	}
	s.nextSeq.Store(nextSeq)
	s.count.Store(int64(len(records)))
}
