// Command perfbench is the repository's end-to-end benchmark. It drives a
// real tuneserve process over loopback with one load-generator process
// holding two connections (A: the server-wide event stream; B: every
// other request), and, with -trace 1, also replays the workload
// in-process with a span around every call into a layer.
//
// Usage (from the repository root, after perfbench/run.sh has built the
// binaries):
//
//	perfbench -workload table1-durable -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. BASELINE.md records why each
// workload exists and its first measured numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the service sees, reported with
// -trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_latency_p50_s", "s", "lower"},
	{"job_latency_p90_s", "s", "lower"},
	{"cpu_s_per_job", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"improvement_pct_mean", "%", "higher"},
	{"tuning_cost_usd_per_job", "USD", "lower"},
	{"jobs_converged_pct", "%", "higher"},
	{"read_latency_p50_ms", "ms", "lower"},
	{"read_latency_p99_ms", "ms", "lower"},
}

// perLayer are the per-layer metrics reported with -trace 1 on every
// workload (0 where the workload does not exercise the layer).
var perLayer = func() []metricDef {
	d := []metricDef{{"tuneserve.submit_ms", "ms", "lower"}}
	for _, r := range allRoutes {
		d = append(d, metricDef{"tuneserve.read_ms." + r, "ms", "lower"})
	}
	return append(d, []metricDef{
		{"tuneserve.stream_gaps", "count", "lower"},
		{"tuneserve.job_stream_close_ms", "ms", "lower"},
		{"jobs.submit_ms", "ms", "lower"},
		{"jobs.queue_wait_ms_p50", "ms", "lower"},
		{"jobs.queue_wait_ms_p90", "ms", "lower"},
		{"jobs.run_ms_p50", "ms", "lower"},
		{"jobs.run_ms_mean", "ms", "lower"},
		{"jobs.refused", "count", "lower"},
		{"jobs.failed", "count", "lower"},
		{"jobs.unconverged", "count", "lower"},
		{"core.pipeline_self_ms", "ms", "lower"},
		{"core.tune_cloud_self_ms", "ms", "lower"},
		{"core.probe_self_ms", "ms", "lower"},
		{"core.tune_disc_self_ms", "ms", "lower"},
		{"core.baseline_self_ms", "ms", "lower"},
		{"core.warm_started_ratio", "ratio", "higher"},
		{"core.executions_per_job", "count", "lower"},
		{"tuner.self_ms", "ms", "lower"},
		{"tuner.propose_ms", "ms", "lower"},
		{"tuner.acq_ms", "ms", "lower"},
		{"tuner.trials_per_job", "count", "lower"},
		{"gp.fit_ms", "ms", "lower"},
		{"gp.predict_ms", "ms", "lower"},
		{"gp.fits_per_job", "count", "lower"},
		{"gp.fit_points_mean", "count", "lower"},
		{"spark.run_ms", "ms", "lower"},
		{"spark.runs_per_job", "count", "lower"},
		{"simcache.hit_ratio", "ratio", "higher"},
		{"storage.append_record_ms", "ms", "lower"},
		{"storage.append_record_ms_p50", "ms", "lower"},
		{"storage.append_record_ms_p90", "ms", "lower"},
		{"storage.append_event_us", "us", "lower"},
		{"wal.fsyncs_per_job", "count", "lower"},
		{"wal.records_per_fsync", "count", "higher"},
		{"wal.fsync_ms_p50", "ms", "lower"},
		{"storage.recover_s", "s", "lower"},
		{"storage.recovered_records", "count", "higher"},
		{"history.records", "count", "higher"},
		{"history.query_ms", "ms", "lower"},
		{"obs.events_per_job", "count", "lower"},
		{"obs.events_dropped", "count", "lower"},
		{"obs.spans_per_job", "count", "lower"},
		{"telemetry.query_ms", "ms", "lower"},
		{"attribution.unattributed_ms", "ms", "lower"},
		{"attribution.coverage", "ratio", "higher"},
		{"share.storage", "ratio", "lower"},
		{"share.tuner_gp", "ratio", "lower"},
		{"share.spark", "ratio", "lower"},
		{"share.core", "ratio", "lower"},
		{"share.unattributed", "ratio", "lower"},
		{"trace.jobs_per_s", "1/s", "higher"},
		{"trace.untraced_jobs_per_s", "1/s", "higher"},
		{"trace.overhead_pct", "%", "lower"},
	}...)
}()

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is one run's raw tallies before they become the result line.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	// problems are output-check failures and invalid-run findings; any
	// makes the run incorrect.
	problems []string
}

func main() {
	name := flag.String("workload", "", "workload: table1-durable, fleet-volatile or ops-reads")
	seed := flag.Int64("seed", 1, "workload seed (job mix order)")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	bin := flag.String("bin", ".bench_build/tuneserve", "tuneserve binary")
	workRoot := flag.String("work", ".bench_build/work", "directory for data dirs and server logs")
	flag.Parse()

	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// The load generator may use no more threads than the machine has
	// CPUs, and at most two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	work := filepath.Join(*workRoot, fmt.Sprintf("%s-%d", def.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		fmt.Fprintf(os.Stderr, "perfbench: server logs kept in %s\n", work)
		os.Exit(1)
	}
	os.RemoveAll(work)

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for _, d := range defs {
		v := out.values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// progress logs a phase boundary to standard error with the time since
// the run started.
var runStart = time.Now()

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

func run(def workloadDef, seed int64, dur time.Duration, traced bool, bin, work string) (*outcome, error) {
	h := &httpRun{def: def, seed: seed, bin: bin, work: work, connA: newConn(), connB: newConn()}
	if def.backend == "prefilled" {
		h.prefill = filepath.Join(work, "prefill")
		t0 := time.Now()
		n, err := prefill(h.prefill)
		if err != nil {
			return nil, err
		}
		h.records = n
		fmt.Printf("prefill: %d history records in %.2fs (untimed)\n", n, time.Since(t0).Seconds())
	}
	reps := setupReps
	httpDur := dur
	if traced {
		reps, httpDur = 1, dur/2
	}
	out := &outcome{values: make(map[string]float64)}
	var setups []float64
	var srv *serverProc
	var es *eventStream
	var canary string
	for rep := 0; rep < reps; rep++ {
		progress("set-up %d", rep)
		s, e, setupS, id, err := h.setup(rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupS)
		if rep < reps-1 {
			e.close()
			s.stop()
			h.connA.CloseIdleConnections()
			h.connB.CloseIdleConnections()
			continue
		}
		srv, es, canary = s, e, id
	}
	out.problems = append(out.problems, h.checkProblems...)
	progress("measuring %s", httpDur)
	m, err := measureServer(h, srv, es, canary, httpDur, traced)
	if err != nil {
		return nil, err
	}
	js, rs := m.jobs, m.reads
	gaps := m.gaps
	fmt.Printf("requests  setup: sent %d ok %d failed %d | submit: sent %d ok %d failed %d | results: sent %d ok %d failed %d | reads: sent %d ok %d failed %d\n",
		h.setupCounts.Sent, h.setupCounts.OK, h.setupCounts.Failed,
		js.phaseSubmit.Sent, js.phaseSubmit.OK, js.phaseSubmit.Failed,
		js.phaseResults.Sent, js.phaseResults.OK, js.phaseResults.Failed,
		rs.phase.Sent, rs.phase.OK, rs.phase.Failed)
	fmt.Printf("jobs      attempted %d completed-in-window %d drained %d refused(429) %d failed %d unconverged %d check-failed %d session_end-drops-confirmed %d stream-gap-events %d\n",
		js.Attempted, js.Completed, js.Drained, js.Refused, js.Failed, js.Unconverged, js.CheckFailed, js.DropsConfirmed, gaps)
	jobFailedRatio := float64(js.failures()) / float64(max(1, js.Attempted))
	readFailedRatio := float64(rs.Failed) / float64(max(1, len(rs.LatencyMS)))
	late := summarize(rs.LateMS, 0.99)
	own := summarize(rs.OwnLagMS, 0.99)
	interval := 1000 / def.readRate
	fmt.Printf("ratios    job_failed_ratio %.4f read_failed_ratio %.4f\n", jobFailedRatio, readFailedRatio)
	fmt.Printf("generator read sends late vs due: p50 %.3fms p99 %.3fms; own lag (not waiting on the previous read): mean %.3fms p99 %.3fms; interval %.3fms\n",
		late.P50, late.Tail, mean(rs.OwnLagMS), own.Tail, interval)
	// The generator is the bottleneck when its own delay, not the server,
	// holds sends back: then the read latencies measure the client.
	if mean(rs.OwnLagMS) > interval/2 {
		out.problems = append(out.problems, fmt.Sprintf("run invalid: load generator lagged %.3fms per read on a %.3fms schedule", mean(rs.OwnLagMS), interval))
	}
	out.attempted = len(setups) + js.Attempted + len(rs.LatencyMS)
	out.failed = js.failures() + rs.Failed
	// A job the service ends as failed for another reason than a tuning
	// verdict is a reported outcome, not a wrong answer: it counts in failed
	// and job_failed_ratio, but only output checks make a run incorrect.
	// Unconverged jobs count in jobs_converged_pct.
	for _, n := range js.Notes {
		fmt.Println("JOB FAILED:", n)
	}
	if js.CheckFailed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d done jobs failed an output check", js.CheckFailed, js.Attempted))
	}
	if rs.Failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d reads failed", rs.Failed, len(rs.LatencyMS)))
	}

	lat := summarize(js.LatencyS, 0.9)
	reads := summarize(rs.LatencyMS, 0.99)
	fmt.Printf("samples   jobs %d (%d beyond p90) reads %d (%d beyond p99) setups %d\n", lat.N, lat.Beyond, reads.N, reads.Beyond, len(setups))
	if !traced {
		if !lat.tailOK() {
			out.problems = append(out.problems, fmt.Sprintf("only %d jobs completed: fewer than %d beyond p90", lat.N, minTail))
		}
		if !reads.tailOK() {
			out.problems = append(out.problems, fmt.Sprintf("only %d reads: fewer than %d beyond p99", reads.N, minTail))
		}
	}
	v := out.values
	v["setup_s"] = median(setups)
	v["jobs_per_s"] = 0
	if js.Completed > 0 {
		v["jobs_per_s"] = float64(js.Completed) / js.LastAt.Sub(m.start).Seconds()
	}
	v["job_latency_p50_s"] = lat.P50
	v["job_latency_p90_s"] = lat.Tail
	v["cpu_s_per_job"] = m.cpuS / float64(max(1, js.Completed+js.Drained))
	v["rss_peak_mb"] = m.rssMB
	v["improvement_pct_mean"] = classMean(js.Improvement)
	v["tuning_cost_usd_per_job"] = classMean(js.CostUSD)
	v["jobs_converged_pct"] = js.convergedPct()
	v["read_latency_p50_ms"] = reads.P50
	v["read_latency_p99_ms"] = reads.Tail
	if !traced {
		return out, nil
	}

	v["tuneserve.submit_ms"] = median(js.SubmitMS)
	for _, r := range allRoutes {
		v["tuneserve.read_ms."+r] = median(rs.RouteMS[r])
	}
	v["tuneserve.stream_gaps"] = float64(gaps)
	v["tuneserve.job_stream_close_ms"] = m.closeLagMS
	progress("in-process replays %s", dur-httpDur)
	layers, problems, err := runTraced(def, seed, work, h.prefill, h.records, dur-httpDur)
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, problems...)
	for k, x := range layers {
		v[k] = x
	}
	printShares(v)
	return out, nil
}

// serverMeasurement is what one measured server yielded.
type serverMeasurement struct {
	jobs       *jobStats
	reads      *readStats
	cpuS       float64 // server CPU over the measurement
	rssMB      float64 // server peak RSS
	gaps       uint64  // events the server dropped on the stream
	start      time.Time
	closeLagMS float64 // traced runs: the job-stream close lag
}

// measureServer runs the measured traffic against the set-up server and
// stops it.
func measureServer(h *httpRun, srv *serverProc, es *eventStream, canary string, dur time.Duration, traced bool) (*serverMeasurement, error) {
	defer func() {
		progress("stopping server")
		es.close()
		srv.stop()
	}()
	cpu0, _, err := procUsage(srv.pid())
	if err != nil {
		return nil, err
	}
	m := &serverMeasurement{}
	if m.jobs, m.reads, m.start, err = h.measure(srv, es, canary, dur); err != nil {
		return nil, err
	}
	cpu1, rss, err := procUsage(srv.pid())
	if err != nil {
		return nil, err
	}
	m.cpuS, m.rssMB, m.gaps = cpu1-cpu0, rss, es.gaps.Load()
	if traced {
		if m.closeLagMS, err = jobStreamCloseLag(h.connB, srv.base, canary); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// printShares prints the traced run's breakdown of a job's run time.
func printShares(v map[string]float64) {
	fmt.Print("shares   ")
	for _, k := range []string{"share.storage", "share.tuner_gp", "share.spark", "share.core", "share.unattributed"} {
		fmt.Printf(" %s %.3f", k, v[k])
	}
	fmt.Printf(" | coverage of jobs.run %.3f\n", v["attribution.coverage"])
}
