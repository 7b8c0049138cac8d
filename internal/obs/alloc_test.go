package obs

import (
	"testing"
)

// TestHotPathAllocFree is the guard behind the PR's "leave it on"
// promise: the per-event cost of every metric and span operation must be
// zero heap allocations, so observability cannot silently regress the
// tuned hot paths (BenchmarkBayesOptStep and friends).
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", DefBuckets)
	vc := r.CounterVec("v_total", "", "route").With("/v1/jobs")
	tracer := NewTracer(1024)
	tr := Trace{T: tracer, ID: tracer.NewTraceID()}
	elogNoSub := NewEventLog(1024)
	emNoSub := Emitter{Log: elogNoSub, Session: "s", Tenant: "t", Workload: "w"}
	elog := NewEventLog(1024)
	em := Emitter{Log: elog, Session: "s", Tenant: "t", Workload: "w"}
	_, sub := elog.SubscribeFrom(0, 4) // stays full after 4 publishes: drop path
	defer sub.Close()

	cases := []struct {
		name string
		op   func()
	}{
		{"counter-add", func() { c.Add(1) }},
		{"gauge-set", func() { g.Set(3.5) }},
		{"histogram-observe", func() { h.Observe(0.042) }},
		{"vec-child-add", func() { vc.Inc() }},
		{"span", func() {
			sp := tr.Start("trial", "tuner")
			sp.Num("best", 12.5)
			sp.Str("state", "ok")
			sp.End()
		}},
		{"event", func() { tr.Event("tick", "tuner") }},
		{"eventlog-publish-nosub", func() {
			emNoSub.Emit(Event{Type: EventTrial, Trial: 1, Objective: 12.5, CostUSD: 0.01})
		}},
		{"eventlog-publish-sub", func() {
			em.Emit(Event{Type: EventTrial, Trial: 1, Objective: 12.5, CostUSD: 0.01})
		}},
		{"eventlog-publish-nil", func() {
			var off Emitter
			off.Emit(Event{Type: EventTrial, Trial: 1})
		}},
		{"nop-span", func() {
			var off Trace
			sp := off.Start("trial", "tuner")
			sp.Num("best", 12.5)
			sp.End()
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkObsOverhead measures the instrumented hot-path cost against
// the no-op (zero-value handle) baseline — the numbers recorded in the
// obs-hot and obs-arms rows of BENCH.json. ReportAllocs makes any future
// allocation regression visible in the committed record.
func BenchmarkObsOverhead(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	h := r.Histogram("bench_seconds", "", DefBuckets)
	tracer := NewTracer(4096)
	tr := Trace{T: tracer, ID: tracer.NewTraceID()}

	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i&1023) * 0.001)
		}
	})
	b.Run("span", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.Start("trial", "tuner")
			sp.Num("best", 1)
			sp.End()
		}
	})
	var nopC Counter
	b.Run("counter-nop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nopC.Add(1)
		}
	})
	var nopT Trace
	b.Run("span-nop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := nopT.Start("trial", "tuner")
			sp.Num("best", 1)
			sp.End()
		}
	})
	// Event bus: the no-subscriber path is what every trial pays when
	// nobody is streaming; the drained-subscriber path adds one channel
	// send. Both must stay 0 allocs/op.
	elog := NewEventLog(8192)
	em := Emitter{Log: elog, Session: "job", Tenant: "acme", Workload: "pagerank"}
	b.Run("event-nosub", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			em.Emit(Event{Type: EventTrial, Trial: i, Objective: 12.5, BestSoFar: 10, CostUSD: 0.01, SpendUSD: 1})
		}
	})
	b.Run("event-sub", func(b *testing.B) {
		_, sub := elog.SubscribeFrom(0, 1024)
		defer sub.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range sub.C() {
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			em.Emit(Event{Type: EventTrial, Trial: i, Objective: 12.5, BestSoFar: 10, CostUSD: 0.01, SpendUSD: 1})
		}
		b.StopTimer()
		sub.Close()
		<-done
	})
	var nopEm Emitter
	b.Run("event-nop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nopEm.Emit(Event{Type: EventTrial, Trial: i})
		}
	})
	b.Run("event-jsonl", func(b *testing.B) {
		buf := make([]byte, 0, 512)
		e := Event{Seq: 9, TimeNS: 1, Type: EventTrial, Session: "job", Trial: 3,
			Cluster: "4x nimbus/h1.4xlarge", RuntimeS: 82.5, Objective: 82.5, CostUSD: 0.31}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = e.AppendJSONL(buf[:0])
		}
	})
}
