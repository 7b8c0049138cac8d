package obs

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestEventLogPublishAssignsSeq(t *testing.T) {
	l := NewEventLog(16)
	for i := 0; i < 5; i++ {
		l.Publish(Event{Type: EventTrial, Trial: i + 1})
	}
	got := l.Snapshot(0)
	if len(got) != 5 {
		t.Fatalf("snapshot len = %d, want 5", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.TimeNS == 0 {
			t.Errorf("event %d: timestamp not stamped", i)
		}
		if e.Trial != i+1 {
			t.Errorf("event %d: trial = %d, want %d", i, e.Trial, i+1)
		}
	}
}

func TestEventLogRingEviction(t *testing.T) {
	l := NewEventLog(4)
	for i := 1; i <= 10; i++ {
		l.Publish(Event{Type: EventTrial, Trial: i})
	}
	got := l.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4 (ring capacity)", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, want)
		}
	}
	// fromSeq past the end yields nothing.
	if rest := l.Snapshot(10); len(rest) != 0 {
		t.Errorf("snapshot(10) = %d events, want 0", len(rest))
	}
	// fromSeq mid-ring yields the tail only.
	if rest := l.Snapshot(8); len(rest) != 2 {
		t.Errorf("snapshot(8) = %d events, want 2", len(rest))
	}
}

func TestEventLogFanOut(t *testing.T) {
	l := NewEventLog(64)
	_, a := l.SubscribeFrom(0, 8)
	_, b := l.SubscribeFrom(0, 8)
	defer a.Close()
	defer b.Close()
	l.Publish(Event{Type: EventTrial})
	ea, eb := <-a.C(), <-b.C()
	if ea.Seq != 1 || eb.Seq != 1 {
		t.Fatalf("fan-out seqs = %d, %d, want 1, 1", ea.Seq, eb.Seq)
	}
}

func TestEventLogDropNotBlock(t *testing.T) {
	l := NewEventLog(64)
	_, slow := l.SubscribeFrom(0, 2)
	defer slow.Close()
	// Publish more than the channel buffer without draining: must not
	// block and must count the overflow.
	for i := 0; i < 10; i++ {
		l.Publish(Event{Type: EventTrial, Trial: i + 1})
	}
	if got := slow.Dropped(); got != 8 {
		t.Errorf("dropped = %d, want 8", got)
	}
	if st := l.Stats(); st.Dropped != 8 || st.Published != 10 || st.Subscribers != 1 {
		t.Errorf("stats = %+v, want dropped 8, published 10, subscribers 1", st)
	}
	// The ring still has everything: a late reader replays in full.
	if replay := l.Snapshot(0); len(replay) != 10 {
		t.Errorf("replay len = %d, want 10", len(replay))
	}
}

// TestEventLogReplayTailNoGap drives a publisher concurrently with
// subscribers joining mid-stream and checks every subscriber sees a
// gapless, duplicate-free suffix of the sequence — the property the SSE
// handler's replay-then-tail depends on.
func TestEventLogReplayTailNoGap(t *testing.T) {
	const total = 2000
	l := NewEventLog(total) // ring holds everything so replay is complete
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			l.Publish(Event{Type: EventTrial, Trial: i + 1})
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay, sub := l.SubscribeFrom(0, total)
			defer sub.Close()
			next := uint64(1)
			for _, e := range replay {
				if e.Seq != next {
					t.Errorf("replay gap: seq %d, want %d", e.Seq, next)
					return
				}
				next++
			}
			for next <= total {
				e, ok := <-sub.C()
				if !ok {
					t.Errorf("channel closed at seq %d", next)
					return
				}
				if e.Seq != next {
					t.Errorf("tail gap: seq %d, want %d", e.Seq, next)
					return
				}
				next++
			}
		}()
	}
	wg.Wait()
	if st := l.Stats(); st.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (buffers were large enough)", st.Dropped)
	}
}

func TestEventLogClose(t *testing.T) {
	l := NewEventLog(16)
	l.Publish(Event{Type: EventSessionStart})
	_, sub := l.SubscribeFrom(0, 4)
	l.Close()
	l.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Error("subscriber channel not closed by log Close")
	}
	sub.Close() // safe after log close
	l.Publish(Event{Type: EventTrial})
	if st := l.Stats(); st.Published != 1 {
		t.Errorf("published after close = %d, want 1", st.Published)
	}
	// Ring stays readable for the shutdown flush.
	if got := l.Snapshot(0); len(got) != 1 || got[0].Type != EventSessionStart {
		t.Errorf("post-close snapshot = %+v, want the one session_start", got)
	}
	// Subscribing after close: replay served, channel already closed.
	replay, late := l.SubscribeFrom(0, 4)
	if len(replay) != 1 {
		t.Errorf("post-close replay len = %d, want 1", len(replay))
	}
	if _, ok := <-late.C(); ok {
		t.Error("post-close subscription channel should be closed")
	}
}

func TestNilEventLogIsNoOp(t *testing.T) {
	var l *EventLog
	l.Publish(Event{Type: EventTrial})
	l.Close()
	if got := l.Snapshot(0); got != nil {
		t.Errorf("nil snapshot = %v, want nil", got)
	}
	if st := l.Stats(); st != (EventStats{}) {
		t.Errorf("nil stats = %+v, want zero", st)
	}
	var em Emitter
	if em.Enabled() {
		t.Error("zero emitter reports enabled")
	}
	em.Emit(Event{Type: EventTrial}) // must not panic
}

func TestEmitterStampsIdentity(t *testing.T) {
	l := NewEventLog(8)
	em := Emitter{Log: l, Session: "job-1", Tenant: "acme", Workload: "pagerank"}
	ctx := NewEmitterContext(context.Background(), em)
	got := EmitterFrom(ctx)
	if got != em {
		t.Fatalf("EmitterFrom = %+v, want %+v", got, em)
	}
	if EmitterFrom(context.Background()).Enabled() {
		t.Error("emitter from empty context should be disabled")
	}
	got.Emit(Event{Type: EventTrial, Trial: 3})
	events := l.Snapshot(0)
	if len(events) != 1 {
		t.Fatalf("published %d events, want 1", len(events))
	}
	e := events[0]
	if e.Session != "job-1" || e.Tenant != "acme" || e.Workload != "pagerank" {
		t.Errorf("identity not stamped: %+v", e)
	}
}

// TestEventJSONLRoundTrip checks the hand-rolled encoder against
// encoding/json: decoding its output must reproduce the event exactly,
// for both sparse and fully-populated events.
func TestEventJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, TimeNS: 123, Type: EventSessionStart, Session: "j1", Tenant: "t", Workload: "wordcount", BudgetTrials: 30},
		{Seq: 2, TimeNS: 456, Type: EventTrial, Session: "j1", Phase: "cloud", Trial: 1,
			Cluster: "4x nimbus/h1.4xlarge", RuntimeS: 82.5, Objective: 82.5, BestSoFar: 82.5,
			CostUSD: 0.31, SpendUSD: 0.31, Attainment: 0.5, BurnRate: 0.31, ProjectedSpendUSD: 9.3},
		{Seq: 3, TimeNS: 789, Type: EventTrial, Trial: 2, RuntimeS: 10, Failed: true, Objective: 100, RegretS: 17.5},
		{Seq: 4, TimeNS: 1011, Type: EventSLOViolation, Detail: `projected spend $9.30 > budget "tiny" \ limit`},
		{Seq: 5, TimeNS: 1213, Type: EventSessionEnd, Detail: "ok\nline2\ttab"},
	}
	var buf []byte
	for _, e := range events {
		buf = append(e.AppendJSONL(buf), '\n')
	}
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("got %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: invalid JSON %q: %v", i, line, err)
		}
		if !reflect.DeepEqual(got, events[i]) {
			t.Errorf("line %d: round-trip mismatch\n got %+v\nwant %+v", i, got, events[i])
		}
	}
}

func TestEventJSONLOmitsNonFinite(t *testing.T) {
	e := Event{Seq: 1, TimeNS: 1, Type: EventTrial, Objective: 1.5}
	e.RegretS = math.Inf(1)
	line := string(e.AppendJSONL(nil))
	if strings.Contains(line, "regretS") {
		t.Errorf("non-finite field not omitted: %s", line)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
}

// TestEventLogConcurrency exercises publish/subscribe/close races for
// the -race build.
func TestEventLogConcurrency(t *testing.T) {
	l := NewEventLog(128)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Publish(Event{Type: EventTrial, Trial: i})
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sub := l.SubscribeFrom(0, 16)
			for i := 0; i < 100; i++ {
				select {
				case _, ok := <-sub.C():
					if !ok {
						return
					}
				default:
				}
			}
			sub.Dropped()
			sub.Close()
		}()
	}
	wg.Wait()
	l.Close()
	if st := l.Stats(); st.Published != 2000 {
		t.Errorf("published = %d, want 2000", st.Published)
	}
}
