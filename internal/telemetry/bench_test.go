package telemetry

import (
	"testing"
	"time"

	"seamlesstune/internal/obs"
)

// benchRegistry builds a registry shaped like a live tuneserve process:
// a handful of counters and gauges, labeled vecs, and sketched
// histograms — the families one Poll must gather and fold.
func benchRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("jobs_finished_total", "b").Add(100)
	r.Counter("events_published_total", "b").Add(5000)
	r.Gauge("jobs_queue_depth", "b").Set(3)
	r.Gauge("jobs_workers", "b").Set(4)
	sub := r.CounterVec("jobs_submitted_total", "b", "tenant")
	for _, tn := range []string{"acme", "beta", "gamma"} {
		sub.With(tn).Add(10)
	}
	h := r.HistogramSketched("wal_fsync_seconds", "b", obs.ExpBuckets(1e-5, 2, 16))
	for i := 0; i < 512; i++ {
		h.Observe(0.001 * float64(i%7+1))
	}
	lat := r.HistogramVecSketched("http_request_seconds", "b", obs.ExpBuckets(1e-4, 2, 14), "route")
	for _, rt := range []string{"/v1/jobs", "/v1/query", "/healthz"} {
		for i := 0; i < 64; i++ {
			lat.With(rt).Observe(0.0005 * float64(i%5+1))
		}
	}
	return r
}

// BenchmarkTelemetrySnapshot is the per-interval sampling cost: one
// registry gather folded into every rollup tier. At the default 1s
// interval this runs once per second — the paper-facing budget is
// <1% of one BenchmarkBayesOptStep/n=60 (the telemetry and
// bayesopt-step rows of BENCH.json).
func BenchmarkTelemetrySnapshot(b *testing.B) {
	s := NewStore(Config{Registry: benchRegistry(), Interval: time.Second, Retention: 24 * time.Hour})
	ts := base
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Poll(ts)
		ts = ts.Add(time.Second)
	}
}

// populatedStore polls `span` of 1s history into a fresh store.
func populatedStore(b *testing.B, span time.Duration) (*Store, time.Time) {
	b.Helper()
	s := NewStore(Config{Registry: benchRegistry(), Interval: time.Second, Retention: 24 * time.Hour})
	end := base.Add(span)
	for ts := base; ts.Before(end); ts = ts.Add(time.Second) {
		s.Poll(ts)
	}
	return s, end
}

// BenchmarkTelemetryRangeQuery measures /v1/query latency over 1h and
// 24h of history at dashboard-shaped steps (~240 points per range).
func BenchmarkTelemetryRangeQuery(b *testing.B) {
	cases := []struct {
		name string
		span time.Duration
		step time.Duration
	}{
		{"1h", time.Hour, 15 * time.Second},
		{"24h", 24 * time.Hour, 6 * time.Minute},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s, end := populatedStore(b, c.span)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := s.Query("wal_fsync_seconds:p99", nil, end.Add(-c.span), end, c.step)
				if len(res) == 0 {
					b.Fatal("query returned nothing")
				}
			}
		})
	}
}

// BenchmarkAlertEval is the per-interval alert engine cost: the full
// default rule set (thresholds plus two multi-window burn rates)
// evaluated against an hour of history.
func BenchmarkAlertEval(b *testing.B) {
	s, end := populatedStore(b, time.Hour)
	eng, err := NewEngine(s, DefaultRules())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Eval(end)
	}
}
