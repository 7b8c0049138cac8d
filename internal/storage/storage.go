// Package storage is the durable persistence tier behind the tuning
// service: a pluggable backend interface over the execution-history
// store and the telemetry event stream, with three implementations.
//
//   - "wal": a segmented write-ahead log (internal/wal). History records
//     and events append O(1) with group-committed fsyncs; a background
//     compactor folds cold segments into snapshot records, bounding disk
//     and recovery time; startup replays snapshot + live segments,
//     tolerating torn tails. This is the production backend.
//   - "snapshot": the legacy temp-and-rename whole-store JSON snapshot
//     (now with the fsyncs the original lacked), kept for equivalence —
//     its on-disk state file is byte-identical to what the service wrote
//     before the WAL tier existed.
//   - "memory": nothing persists; every call is a no-op.
//
// The determinism contract (stat.DeriveSeed, schedule-independent
// replay) makes recovery testable end to end: a store recovered from the
// WAL after a crash reproduces the uninterrupted run's trajectories bit
// for bit.
package storage

import (
	"fmt"
	"time"

	"seamlesstune/internal/history"
	"seamlesstune/internal/obs"
)

// Record types in the WAL framing (type 0 is the log's own no-op).
const (
	recHistory   byte = 1
	recEvent     byte = 2
	recSnapshot  byte = 3
	recTelemetry byte = 4
)

// Backend is one persistence strategy for the history store and the
// event stream. Implementations are safe for concurrent use.
type Backend interface {
	// Name identifies the backend ("wal", "snapshot", "memory").
	Name() string
	// Recover loads persisted state into st, replacing its contents, and
	// returns the persisted telemetry events that survived (oldest
	// first). It must be called once, before any append.
	Recover(st *history.Store) ([]obs.Event, error)
	// AppendRecord persists one history record. For the WAL backend the
	// call returns once the record's group commit has fsynced; for the
	// snapshot backend it schedules a coalesced asynchronous snapshot.
	AppendRecord(r history.Record) error
	// AppendEvent persists one telemetry event. Never blocks the hot
	// path: the WAL backend enqueues asynchronously and drops (counted)
	// at the queue bound; the snapshot backend retains events only via
	// FlushEvents at shutdown.
	AppendEvent(e obs.Event) error
	// FlushEvents is the shutdown hook: the caller passes the retained
	// event ring. The snapshot backend writes it as events.jsonl; the
	// WAL backend — whose events are already on disk — syncs, and also
	// writes the ring when an events path is configured alongside the
	// data directory.
	FlushEvents(events []obs.Event) error
	// AppendTelemetry persists one opaque telemetry rollup block (sealed
	// downsampled buckets from internal/telemetry). Like AppendEvent it
	// never blocks the hot path: the WAL backend enqueues asynchronously
	// and drops (counted) at the queue bound; the other backends discard.
	AppendTelemetry(block []byte) error
	// RecoveredTelemetry returns the rollup blocks that survived the last
	// Recover, oldest first. The slices are owned by the caller.
	RecoveredTelemetry() [][]byte
	// SetTelemetrySource installs the compaction hook that dumps the full
	// sealed-rollup state (telemetry.Store.PersistedState), so a
	// compacted WAL still reconstructs telemetry history. Nil removes it.
	SetTelemetrySource(fn func() [][]byte)
	// Saturated reports whether appends are backed up, and a suggested
	// client retry delay — the admission-control probe the job engine
	// sheds load on.
	Saturated() (bool, time.Duration)
	// Compact folds cold state (WAL: snapshot + drop sealed segments;
	// snapshot: force a synchronous save). Safe to call at any time.
	Compact() error
	// Stats summarizes the backend for /healthz and tunectl storage.
	Stats() Stats
	// Close flushes and releases the backend.
	Close() error
}

// Stats is a point-in-time summary of a backend.
type Stats struct {
	Backend string `json:"backend"`
	// Dir or Path locates the persisted state.
	Dir  string `json:"dir,omitempty"`
	Path string `json:"path,omitempty"`
	// Records and Events count appends accepted this process; Errors
	// appends that failed; EventsDropped events shed at the queue bound.
	Records       int64 `json:"records"`
	Events        int64 `json:"events"`
	Errors        int64 `json:"errors,omitempty"`
	EventsDropped int64 `json:"eventsDropped,omitempty"`
	// TelemetryBlocks counts rollup blocks appended this process;
	// TelemetryDropped blocks shed at the queue bound.
	TelemetryBlocks  int64 `json:"telemetryBlocks,omitempty"`
	TelemetryDropped int64 `json:"telemetryDropped,omitempty"`
	// WAL-backend geometry.
	Segments       int    `json:"segments,omitempty"`
	SealedSegments int    `json:"sealedSegments,omitempty"`
	ActiveSegment  uint64 `json:"activeSegment,omitempty"`
	DiskBytes      int64  `json:"diskBytes,omitempty"`
	QueueDepth     int    `json:"queueDepth,omitempty"`
	QueueCap       int    `json:"queueCap,omitempty"`
	Saturated      bool   `json:"saturated,omitempty"`
	Fsyncs         uint64 `json:"fsyncs,omitempty"`
	// Compactions counts completed folds; LastCompactionUnix the wall
	// clock of the most recent one (0 = never).
	Compactions        int64 `json:"compactions,omitempty"`
	LastCompactionUnix int64 `json:"lastCompactionUnix,omitempty"`
	// Recovery facts from the last Recover call.
	RecoveredRecords   int     `json:"recoveredRecords,omitempty"`
	RecoveredEvents    int     `json:"recoveredEvents,omitempty"`
	RecoveredTelemetry int     `json:"recoveredTelemetry,omitempty"`
	RecoverySeconds    float64 `json:"recoverySeconds,omitempty"`
}

// Config selects and parameterizes a backend.
type Config struct {
	// Backend is "wal", "snapshot", "memory", or "" for automatic
	// resolution: wal when DataDir is set, snapshot when StatePath or
	// EventsPath is, memory otherwise.
	Backend string
	// DataDir is the WAL directory (wal backend).
	DataDir string
	// StatePath is the snapshot backend's history file. EventsPath is
	// the shutdown event flush — written by the snapshot backend and,
	// when set alongside DataDir, by the wal backend too.
	StatePath  string
	EventsPath string
	// FsyncInterval bounds the WAL group-commit window (0 = 2ms).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment roll threshold (0 = 8 MiB).
	SegmentBytes int64
	// CompactSegments is how many sealed segments trigger a background
	// compaction (0 = 4; negative disables automatic compaction).
	CompactSegments int
	// CompactEvery is the background compactor's poll interval
	// (0 = 15s).
	CompactEvery time.Duration
	// EventRetention bounds how many recent events a WAL compaction
	// snapshot retains (0 = 4096).
	EventRetention int
	// NoSync skips fsyncs (tests and benchmarks only).
	NoSync bool
}

// Resolve returns the effective backend name.
func (c Config) Resolve() string {
	if c.Backend != "" {
		return c.Backend
	}
	if c.DataDir != "" {
		return "wal"
	}
	if c.StatePath != "" || c.EventsPath != "" {
		return "snapshot"
	}
	return "memory"
}

// Open constructs the configured backend.
func Open(cfg Config) (Backend, error) {
	switch cfg.Resolve() {
	case "wal":
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("storage: wal backend requires a data directory")
		}
		return openWAL(cfg)
	case "snapshot":
		if cfg.StatePath == "" && cfg.EventsPath == "" {
			return nil, fmt.Errorf("storage: snapshot backend requires a state or events path")
		}
		return newSnapshotBackend(cfg), nil
	case "memory":
		return memoryBackend{}, nil
	default:
		return nil, fmt.Errorf("storage: unknown backend %q (accepted: wal, snapshot, memory)", cfg.Backend)
	}
}
