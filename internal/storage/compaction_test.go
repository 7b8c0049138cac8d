package storage

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"seamlesstune/internal/history"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/wal"
)

// countSnapshots replays dir and counts snapshot records.
func countSnapshots(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	_, err := wal.Replay(dir, func(_ uint64, typ byte, _ []byte) error {
		if typ == recSnapshot {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCompactionChunksLargeSnapshot forces the compactor over its chunk
// budget and verifies the snapshot splits into multiple records that
// reassemble on recovery — history, event tail and telemetry dump alike
// — the path that keeps compaction working (and safe) once the folded
// history outgrows one WAL record.
func TestCompactionChunksLargeSnapshot(t *testing.T) {
	old := snapshotChunkBytes
	snapshotChunkBytes = 256 // a few records per chunk
	defer func() { snapshotChunkBytes = old }()

	dir := t.TempDir()
	b := openTestWAL(t, dir)
	want := appendThrough(t, b, 40)
	b.AppendEvent(obs.Event{Seq: 1, Type: obs.EventTrial, Trial: 1})
	blocks := [][]byte{[]byte("rollup-1"), []byte("rollup-2")}
	b.SetTelemetrySource(func() [][]byte { return blocks })
	if err := b.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSnapshots(t, dir); n < 2 {
		t.Fatalf("snapshot written as %d record(s), want chunks", n)
	}

	b2 := openTestWAL(t, dir)
	defer b2.Close()
	st := &history.Store{}
	events, err := b2.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Query(history.Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked snapshot recovery: got %d records, want %d", len(got), len(want))
	}
	if len(events) != 1 {
		t.Errorf("recovered %d events from the final chunk, want 1", len(events))
	}
	if got := b2.RecoveredTelemetry(); !reflect.DeepEqual(got, blocks) {
		t.Errorf("recovered telemetry = %q from the final chunk, want %q", got, blocks)
	}
}

// TestIncompleteSnapshotChunkRunDiscarded simulates a crash between
// chunk appends: replay must fall back to the raw records (still on
// disk — RemoveThrough only runs after the final chunk), not apply a
// partial fold that would drop everything past the last arrived chunk.
func TestIncompleteSnapshotChunkRunDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []history.Record
	for i := 0; i < 10; i++ {
		r := testRecord(i)
		r.Seq = i
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recHistory, payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	// Part 1 of 2 folds seq<=9 but carries only the first half; part 2
	// never arrived.
	part1, err := json.Marshal(walSnapshot{MaxSeq: 9, Records: want[:5], Part: 1, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recSnapshot, part1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b := openTestWAL(t, dir)
	defer b.Close()
	st := &history.Store{}
	if _, err := b.Recover(st); err != nil {
		t.Fatal(err)
	}
	if got := st.Query(history.Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("partial chunk run: recovered %d records, want all %d raw records", len(got), len(want))
	}
}

// TestCompactConcurrent runs overlapping Compact calls against live
// appends; serialization must keep every invocation safe and recovery
// complete. Run under -race.
func TestCompactConcurrent(t *testing.T) {
	dir := t.TempDir()
	b := openTestWAL(t, dir)
	st := &history.Store{}
	if _, err := b.Recover(st); err != nil {
		t.Fatal(err)
	}
	st.SetPersist(func(r history.Record) {
		if err := b.AppendRecord(r); err != nil {
			t.Errorf("AppendRecord: %v", err)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := b.Compact(); err != nil {
					t.Errorf("Compact: %v", err)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		st.Append(testRecord(i))
	}
	wg.Wait()
	want := st.Query(history.Filter{})
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
		t.Fatalf("recovery after concurrent compactions: got %d records, want %d", len(got), len(want))
	}
}

// TestWALCloseConcurrent: concurrent Close calls must coalesce, not
// double-close the compactor's stop channel and panic.
func TestWALCloseConcurrent(t *testing.T) {
	b, err := Open(Config{Backend: "wal", DataDir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recover(&history.Store{}); err != nil { // starts the compactor
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
}
