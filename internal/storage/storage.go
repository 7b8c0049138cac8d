// Package storage is the durable persistence tier behind the tuning
// service: a pluggable backend interface over the execution-history
// store and the telemetry event stream, with two implementations.
//
//   - "wal": a segmented write-ahead log (internal/wal). History records
//     and events append O(1) with group-committed fsyncs; a background
//     compactor folds cold segments into snapshot records, bounding disk
//     and recovery time; startup replays snapshot + live segments,
//     tolerating torn tails. This is the production backend.
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
	// Name identifies the backend ("wal" or "memory").
	Name() string
	// Recover loads persisted state into st, replacing its contents, and
	// returns the persisted telemetry events that survived (oldest
	// first). It must be called once, before any append.
	Recover(st *history.Store) ([]obs.Event, error)
	// AppendRecord persists one history record. For the WAL backend the
	// call returns once the record's group commit has fsynced.
	AppendRecord(r history.Record) error
	// AppendEvent persists one telemetry event. Never blocks the hot
	// path: the WAL backend enqueues asynchronously and drops (counted)
	// at the queue bound.
	AppendEvent(e obs.Event) error
	// FlushEvents is the shutdown hook: it makes every appended event
	// durable. The events were appended as they were published, so the
	// passed ring is not written again.
	FlushEvents(events []obs.Event) error
	// AppendTelemetry persists one opaque telemetry rollup block (sealed
	// downsampled buckets from internal/telemetry). Like AppendEvent it
	// never blocks the hot path: the WAL backend enqueues asynchronously
	// and drops (counted) at the queue bound; the memory backend discards.
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
	// Compact folds cold state into one snapshot and drops the sealed
	// segments it covers. Safe to call at any time after Recover.
	Compact() error
	// Stats summarizes the backend for /healthz and tunectl storage.
	Stats() Stats
	// Close flushes and releases the backend.
	Close() error
}

// Stats is a point-in-time summary of a backend.
type Stats struct {
	Backend string `json:"backend"`
	// Dir locates the persisted state.
	Dir string `json:"dir,omitempty"`
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
	// Backend is "wal", "memory", or "" for automatic resolution: wal
	// when DataDir is set, memory otherwise.
	Backend string
	// DataDir is the WAL directory (wal backend).
	DataDir string
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
	case "memory":
		return memoryBackend{}, nil
	default:
		return nil, fmt.Errorf("storage: unknown backend %q (accepted: wal, memory)", cfg.Backend)
	}
}

// memoryBackend persists nothing.
type memoryBackend struct{}

func (memoryBackend) Name() string                                { return "memory" }
func (memoryBackend) Recover(*history.Store) ([]obs.Event, error) { return nil, nil }
func (memoryBackend) AppendRecord(history.Record) error           { return nil }
func (memoryBackend) AppendEvent(obs.Event) error                 { return nil }
func (memoryBackend) FlushEvents([]obs.Event) error               { return nil }
func (memoryBackend) AppendTelemetry([]byte) error                { return nil }
func (memoryBackend) RecoveredTelemetry() [][]byte                { return nil }
func (memoryBackend) SetTelemetrySource(func() [][]byte)          {}
func (memoryBackend) Saturated() (bool, time.Duration)            { return false, 0 }
func (memoryBackend) Compact() error                              { return nil }
func (memoryBackend) Stats() Stats                                { return Stats{Backend: "memory"} }
func (memoryBackend) Close() error                                { return nil }
