package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/history"
	"seamlesstune/internal/obs"
)

func testRecord(i int) history.Record {
	return history.Record{
		Tenant:     "acme",
		Workload:   "wordcount",
		InputBytes: int64(i) << 20,
		Cluster:    "4x nimbus/h1.4xlarge",
		Config:     confspace.Config{"spark.executor.memory": float64(1024 * (1 + i%8))},
		RuntimeS:   100 + float64(i),
		CostUSD:    0.1 * float64(i),
		Metrics:    history.Metrics{Executors: 4, Stages: 3},
	}
}

func openTestWAL(t *testing.T, dir string) Backend {
	t.Helper()
	b, err := Open(Config{Backend: "wal", DataDir: dir, NoSync: true, CompactSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// appendThrough recovers st through b, hooks it, and appends n records,
// returning the store's contents.
func appendThrough(t *testing.T, b Backend, n int) []history.Record {
	t.Helper()
	st := &history.Store{}
	if _, err := b.Recover(st); err != nil {
		t.Fatal(err)
	}
	st.SetPersist(func(r history.Record) {
		if err := b.AppendRecord(r); err != nil {
			t.Errorf("AppendRecord: %v", err)
		}
	})
	for i := 0; i < n; i++ {
		st.Append(testRecord(i))
	}
	return st.Query(history.Filter{})
}

func TestResolve(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "memory"},
		{Config{DataDir: "/x"}, "wal"},
		{Config{Backend: "memory", DataDir: "/x"}, "memory"},
	}
	for _, c := range cases {
		if got := c.cfg.Resolve(); got != c.want {
			t.Errorf("Resolve(%+v) = %q, want %q", c.cfg, got, c.want)
		}
	}
	for _, name := range []string{"bogus", "snapshot"} {
		if _, err := Open(Config{Backend: name}); err == nil {
			t.Errorf("backend %q accepted", name)
		}
	}
	if _, err := Open(Config{Backend: "wal"}); err == nil {
		t.Error("wal backend without data dir accepted")
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := openTestWAL(t, dir)
	want := appendThrough(t, b, 50)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := openTestWAL(t, dir)
	defer b2.Close()
	st2 := &history.Store{}
	if _, err := b2.Recover(st2); err != nil {
		t.Fatal(err)
	}
	got := st2.Query(history.Filter{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d records != appended %d records", len(got), len(want))
	}
	// Sequence numbering continues where the crash left off.
	next := st2.Append(testRecord(99))
	if next.Seq != want[len(want)-1].Seq+1 {
		t.Errorf("post-recovery Seq = %d, want %d", next.Seq, want[len(want)-1].Seq+1)
	}
}

// TestWALCrashRecovery abandons the backend without Close — the crash —
// and verifies acknowledged appends survive: every record acked by the
// group commit is replayed bit for bit.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Config{Backend: "wal", DataDir: dir, CompactSegments: -1}) // real fsyncs: acks mean durable
	if err != nil {
		t.Fatal(err)
	}
	want := appendThrough(t, b, 25)
	// No Close: simulate a crash. Acknowledged appends were fsynced.
	b2 := openTestWAL(t, dir)
	defer b2.Close()
	st2 := &history.Store{}
	if _, err := b2.Recover(st2); err != nil {
		t.Fatal(err)
	}
	if got := st2.Query(history.Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash recovery lost or altered records: got %d, want %d", len(got), len(want))
	}
	b.Close() // release the abandoned writer's goroutine
}

func TestWALEventsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := openTestWAL(t, dir)
	st := &history.Store{}
	if _, err := b.Recover(st); err != nil {
		t.Fatal(err)
	}
	want := []obs.Event{
		{Seq: 1, TimeNS: 111, Type: obs.EventSessionStart, Session: "job-1", Tenant: "acme", Workload: "wordcount"},
		{Seq: 2, TimeNS: 222, Type: obs.EventTrial, Session: "job-1", Trial: 3, RuntimeS: 12.5, Objective: 12.5},
		{Seq: 3, TimeNS: 333, Type: obs.EventSessionEnd, Session: "job-1", Detail: "done"},
	}
	for _, e := range want {
		if err := b.AppendEvent(e); err != nil {
			t.Fatalf("AppendEvent: %v", err)
		}
	}
	if err := b.FlushEvents(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := openTestWAL(t, dir)
	defer b2.Close()
	got, err := b2.Recover(&history.Store{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered events = %+v, want %+v", got, want)
	}
}

// TestWALCompaction folds segments into a snapshot record and verifies
// recovery equivalence before and after, plus disk reclamation.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Config{Backend: "wal", DataDir: dir, NoSync: true, CompactSegments: -1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	st := &history.Store{}
	if _, err := b.Recover(st); err != nil {
		t.Fatal(err)
	}
	st.SetPersist(func(r history.Record) { b.AppendRecord(r) })
	for i := 0; i < 100; i++ {
		st.Append(testRecord(i))
	}
	for i := 0; i < 5; i++ {
		b.AppendEvent(obs.Event{Seq: uint64(i + 1), Type: obs.EventTrial, Trial: i + 1})
	}
	want := st.Query(history.Filter{})
	preSegments := b.Stats().Segments
	if preSegments < 3 {
		t.Fatalf("test needs rolled segments, have %d", preSegments)
	}
	if err := b.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	cs := b.Stats()
	if cs.Compactions != 1 || cs.LastCompactionUnix == 0 {
		t.Errorf("compaction stats = %+v", cs)
	}
	if cs.Segments >= preSegments {
		t.Errorf("compaction did not reclaim segments: %d -> %d", preSegments, cs.Segments)
	}
	// Appends after the fold land after the snapshot record.
	st.Append(testRecord(100))
	want = append(want, st.Query(history.Filter{})[len(want)])
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := openTestWAL(t, dir)
	defer b2.Close()
	st2 := &history.Store{}
	events, err := b2.Recover(st2)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Query(history.Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction recovery: got %d records, want %d", len(got), len(want))
	}
	if len(events) != 5 {
		t.Errorf("compaction snapshot retained %d events, want 5", len(events))
	}
	if b2.Stats().RecoveredRecords != len(want) {
		t.Errorf("RecoveredRecords = %d, want %d", b2.Stats().RecoveredRecords, len(want))
	}
}

// TestWALCompactionCrashWindow exercises the crash between the snapshot
// append and the tail deletion: both the snapshot and the pre-fold
// segments exist, and recovery must deduplicate rather than double.
func TestWALCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Config{Backend: "wal", DataDir: dir, NoSync: true, CompactSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := appendThrough(t, b, 20)
	// Rotate + snapshot, but crash before RemoveThrough: simulate by
	// copying the sealed segments aside, compacting, then restoring them.
	wb := b.(*walBackend)
	segs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, e := range segs {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		saved[e.Name()] = data
	}
	if err := wb.Compact(); err != nil {
		t.Fatal(err)
	}
	// Restore the deleted pre-compaction segments: the on-disk state now
	// holds every record twice (raw + folded into the snapshot).
	for name, data := range saved {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := openTestWAL(t, dir)
	defer b2.Close()
	st2 := &history.Store{}
	if _, err := b2.Recover(st2); err != nil {
		t.Fatal(err)
	}
	if got := st2.Query(history.Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash-window recovery: got %d records, want %d (no duplicates)", len(got), len(want))
	}
}

func TestMemoryBackendNoops(t *testing.T) {
	b, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "memory" {
		t.Fatalf("Name = %q", b.Name())
	}
	if _, err := b.Recover(&history.Store{}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRecord(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendEvent(obs.Event{}); err != nil {
		t.Fatal(err)
	}
	if sat, _ := b.Saturated(); sat {
		t.Error("memory backend saturated")
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBackpressureSurface: Saturated reflects the log's queue and
// suggests a positive retry delay.
func TestWALBackpressureSurface(t *testing.T) {
	dir := t.TempDir()
	b := openTestWAL(t, dir)
	defer b.Close()
	sat, retry := b.Saturated()
	if sat {
		t.Error("fresh backend saturated")
	}
	if retry <= 0 || retry > time.Minute {
		t.Errorf("retry hint = %v", retry)
	}
}

// TestCompactBeforeRecoverRejected: compaction needs the recovered store.
func TestCompactBeforeRecoverRejected(t *testing.T) {
	b := openTestWAL(t, t.TempDir())
	defer b.Close()
	if err := b.Compact(); err == nil {
		t.Error("Compact before Recover accepted")
	}
}
