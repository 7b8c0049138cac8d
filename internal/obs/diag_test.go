package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The diagnostics event families (decide, model_health, stall) must
// survive the hand-rolled JSONL encoder bit-for-bit: the tunectl -json
// relay and the shutdown flush both depend on encoder/stdlib parity.
func TestEventJSONLRoundTripDiagnostics(t *testing.T) {
	events := []Event{
		{Seq: 1, TimeNS: 10, Type: EventDecide, Session: "j1", Phase: "disc", Trial: 7,
			Surrogate: "rffgp", Candidates: 120, Rank: 1, PredMean: 4.31, PredStd: 0.22,
			EI: 0.018, EIExploit: 0.011, EIExplore: 0.007,
			TopK: "1:0.018(0.011+0.007),2:0.017(0.002+0.015)"},
		{Seq: 2, TimeNS: 20, Type: EventModelHealth, Session: "j1", Phase: "disc", Trial: 8,
			Scores: 12, Coverage1: 0.583, Coverage2: 0.917, RMSE: 0.31, NLPD: -0.42,
			Severity: "ok", Detail: "calibration nominal"},
		{Seq: 3, TimeNS: 30, Type: EventStall, Session: "j1", Phase: "disc", Trial: 20,
			Plateau: 9, EI: 0.0004, EIPeak: 0.08, EIDecay: 0.005, Severity: "warn",
			Detail: "no improvement for 9 trials and EI decayed to 0.5% of peak — likely converged"},
		// Negative NLPD and a zero severity must encode/omit consistently.
		{Seq: 4, TimeNS: 40, Type: EventModelHealth, Session: "j1", Phase: "cloud",
			Scores: 5, Coverage1: 1, Coverage2: 1, NLPD: -1.2, Severity: "ok"},
	}
	var buf []byte
	for _, e := range events {
		buf = append(e.AppendJSONL(buf), '\n')
	}
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: invalid JSON %q: %v", i, line, err)
		}
		if !reflect.DeepEqual(got, events[i]) {
			t.Errorf("line %d: round-trip mismatch\n got %+v\nwant %+v", i, got, events[i])
		}
		// Parity with encoding/json: same document modulo key order.
		std, err := json.Marshal(events[i])
		if err != nil {
			t.Fatal(err)
		}
		var a, b map[string]any
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(std, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("line %d: encoder disagrees with encoding/json\n hand %s\n std  %s", i, line, std)
		}
	}
}

// Non-finite values in the diagnostics float fields must be omitted,
// never emitted as bare NaN/Inf tokens that would corrupt the stream.
func TestEventJSONLOmitsNonFiniteDiagnosticFields(t *testing.T) {
	e := Event{Seq: 1, TimeNS: 1, Type: EventDecide, Surrogate: "gp"}
	e.PredMean = math.NaN()
	e.PredStd = math.Inf(1)
	e.EI = math.Inf(-1)
	e.EIExploit = math.NaN()
	e.EIExplore = math.Inf(1)
	e.EIPeak = math.NaN()
	e.EIDecay = math.Inf(1)
	e.NLPD = math.NaN()
	e.RMSE = math.Inf(1)
	e.Coverage1 = math.NaN()
	e.Coverage2 = math.Inf(-1)
	line := string(e.AppendJSONL(nil))
	for _, field := range []string{"predMean", "predStd", `"ei"`, "eiExploit", "eiExplore",
		"eiPeak", "eiDecay", "nlpd", "rmse", "coverage1", "coverage2", "NaN", "Inf"} {
		if strings.Contains(line, field) {
			t.Errorf("non-finite field %s leaked into %s", field, line)
		}
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
}

// Sketch.Add must ignore non-finite samples entirely — one Inf would
// otherwise pin the max centroid and poison every upper quantile.
func TestSketchAddIgnoresNonFinite(t *testing.T) {
	s := NewSketch(0)
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Fatalf("count = %d after non-finite adds, want 0", s.Count())
	}
	s.Add(5)
	s.Add(math.Inf(1))
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1", s.Count())
	}
	if got := s.Quantile(0.99); got != 5 {
		t.Errorf("q99 = %g, want 5 (Inf must not become the max)", got)
	}
}

// Merging empty and single-sample sketches in either direction must
// preserve counts and quantiles exactly.
func TestSketchMergeEmptyAndSingleSample(t *testing.T) {
	single := NewSketch(0)
	single.Add(7)

	into := NewSketch(0) // empty ← single
	into.Merge(single)
	if into.Count() != 1 || into.Quantile(0.5) != 7 {
		t.Errorf("empty←single: count %d q50 %g, want 1 and 7", into.Count(), into.Quantile(0.5))
	}

	single.Merge(NewSketch(0)) // single ← empty
	if single.Count() != 1 || single.Quantile(0.5) != 7 {
		t.Errorf("single←empty: count %d q50 %g, want 1 and 7", single.Count(), single.Quantile(0.5))
	}

	other := NewSketch(0) // single ← single
	other.Add(9)
	single.Merge(other)
	if single.Count() != 2 {
		t.Errorf("single←single: count %d, want 2", single.Count())
	}
	if lo, hi := single.Quantile(0), single.Quantile(1); lo != 7 || hi != 9 {
		t.Errorf("single←single: extremes (%g, %g), want (7, 9)", lo, hi)
	}
}

// The JSON metrics mirror must sanitize non-finite values everywhere,
// including sketch quantiles, so the document always parses.
func TestWriteJSONSanitizesNonFinite(t *testing.T) {
	s := Snapshot{Families: []FamilySnapshot{{
		Name: "f", Kind: "histogram",
		Series: []SeriesSnapshot{{
			Value: math.Inf(1),
			Sum:   math.NaN(),
			Quantiles: map[string]float64{
				"p50": math.Inf(-1),
				"p99": math.NaN(),
				"p90": 4.5,
			},
		}},
	}}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("sanitized document does not parse: %v\n%s", err, buf.String())
	}
	ss := got.Families[0].Series[0]
	if ss.Value != 0 || ss.Sum != 0 || ss.Quantiles["p50"] != 0 || ss.Quantiles["p99"] != 0 {
		t.Errorf("non-finite values not zeroed: %+v", ss)
	}
	if ss.Quantiles["p90"] != 4.5 {
		t.Errorf("finite quantile mangled: %+v", ss.Quantiles)
	}
}

// A slow subscriber that overflowed can recover by resubscribing from
// the last sequence number it processed: the ring replays the dropped
// suffix, so overflow costs latency, not data.
func TestEventLogOverflowRecoveryViaResubscribe(t *testing.T) {
	l := NewEventLog(64)
	defer l.Close()
	_, slow := l.SubscribeFrom(0, 2)
	for i := 0; i < 20; i++ {
		l.Publish(Event{Type: EventTrial, Trial: i + 1})
	}
	// Drain what the starved channel managed to hold.
	var last uint64
	for {
		select {
		case e := <-slow.C():
			last = e.Seq
			continue
		default:
		}
		break
	}
	if slow.Dropped() == 0 {
		t.Fatal("expected overflow drops")
	}
	slow.Close()
	replay, sub := l.SubscribeFrom(last, 64)
	defer sub.Close()
	next := last + 1
	for _, e := range replay {
		if e.Seq != next {
			t.Fatalf("recovery gap: seq %d, want %d", e.Seq, next)
		}
		next++
	}
	if next != 21 {
		t.Fatalf("recovered through seq %d, want 20", next-1)
	}
}
