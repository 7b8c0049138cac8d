package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"seamlesstune/internal/core"
	"seamlesstune/internal/history"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/simcache"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/workload"
)

// prefill writes the ops-reads history into a WAL data dir: prefillJobs
// Table-I pipelines over four tenants. Transfer is off and each of the
// two goroutines owns two tenants, so the records do not depend on how
// the goroutines interleave. A pipeline ending in a tuning verdict leaves
// its records like any other. It returns the record count.
func prefill(dir string) (int, error) {
	// Nothing waits on durability here, so commit each append at once
	// rather than holding it open for the group-commit window.
	backend, err := storage.Open(storage.Config{Backend: "wal", DataDir: dir, NoSync: true, FsyncInterval: time.Microsecond})
	if err != nil {
		return 0, err
	}
	opts := append(serviceOptions(simcache.New(0), backend), core.WithTransferThreshold(2))
	svc, err := core.NewService(opts...)
	if err != nil {
		backend.Close()
		return 0, err
	}
	stream := newSpecStream(0, table1Mix(false), 4, "prefill-")
	var lanes [2][]jobSpec
	owner := make(map[string]int)
	for i := 0; i < prefillJobs; i++ {
		spec := stream.next()
		g, ok := owner[spec.Tenant]
		if !ok {
			g = len(owner) % len(lanes)
			owner[spec.Tenant] = g
		}
		lanes[g] = append(lanes[g], spec)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(lanes))
	for g, lane := range lanes {
		wg.Add(1)
		go func(g int, lane []jobSpec) {
			defer wg.Done()
			for _, spec := range lane {
				wl, err := workload.ByName(spec.Workload)
				if err == nil {
					_, err = svc.TunePipeline(context.Background(), core.Registration{
						Tenant: spec.Tenant, Workload: wl, InputBytes: int64(spec.InputGB * (1 << 30))})
				}
				if err != nil && !isTuningVerdict(err.Error()) {
					errs[g] = err
					return
				}
			}
		}(g, lane)
	}
	wg.Wait()
	n := svc.Store().Len()
	cerr := backend.Close()
	for _, err := range append(errs, cerr) {
		if err != nil {
			return 0, fmt.Errorf("prefill: %w", err)
		}
	}
	if len(svc.Store().Query(history.Filter{Tenant: prefillTenant, Workload: prefillWorkload, MaxN: 1})) == 0 {
		return 0, fmt.Errorf("prefill holds no %s/%s records", prefillTenant, prefillWorkload)
	}
	return n, nil
}

// copyDir copies a flat directory of regular files (a WAL data dir).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// tracedResult is what the in-process traced replay measured.
type tracedResult struct {
	jobs        []*jobTrace
	finals      []jobs.Job
	refused     int
	failed      int       // ended failed, other than by a tuning verdict
	unconverged int       // ended failed by a tuning verdict
	checkFailed int       // done, but failed an output check
	telQuery    []float64 // ms per telemetry range query (ops-reads)
	histQ       []float64 // ms per history query (ops-reads)
}

// runTraced replays the workload in-process twice, for dur/2 each: first
// wired as the server is, then with every layer boundary timed. It returns
// the per-layer metrics of the traced replay, and the tracing overhead as
// the gap between the two replays' throughput. That gap is the cost of the
// benchmark's instrumentation, net of the tuner's gp metering it replaces,
// plus whatever the fixed order adds: the untraced replay always goes
// first, because installGPHooks replaces the tuner's gp hooks for the
// rest of the process.
func runTraced(def workloadDef, seed int64, work, prefillDir string, records int, dur time.Duration) (map[string]float64, []string, error) {
	plain, problems, err := replay(def, seed, filepath.Join(work, "untraced-data"), prefillDir, records, dur/2, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	rec.installGPHooks()
	m, more, err := replay(def, seed, filepath.Join(work, "traced-data"), prefillDir, records, dur/2, rec)
	if err != nil {
		return nil, nil, err
	}
	m["trace.untraced_jobs_per_s"] = plain["trace.jobs_per_s"]
	m["trace.overhead_pct"] = 100 * (1 - m["trace.jobs_per_s"]/plain["trace.jobs_per_s"])
	return m, append(problems, more...), nil
}

// replay runs the workload in-process for dur on a fresh service whose
// data dir is dir, timed by rec (nil: untimed), and returns the metrics
// of the jobs that finished in time; trace.jobs_per_s is their rate.
func replay(def workloadDef, seed int64, dir, prefillDir string, records int, dur time.Duration, rec *recorder) (map[string]float64, []string, error) {
	cfg := storage.Config{Backend: "memory"}
	if def.backend != "memory" {
		if def.backend == "prefilled" {
			if err := copyDir(prefillDir, dir); err != nil {
				return nil, nil, err
			}
		}
		cfg = storage.Config{Backend: "wal", DataDir: dir}
	}
	p, err := openInproc(cfg, rec, def.outstanding)
	if err != nil {
		return nil, nil, err
	}
	defer p.close()
	recovered := p.svc.Store().Len()
	var problems []string
	if def.backend == "prefilled" && recovered != records {
		problems = append(problems, fmt.Sprintf("replay recovered %d records, prefilled %d", recovered, records))
	}

	// The canary runs alone first, as in the measured set-up.
	if _, _, err := p.submit(canarySpec); err != nil {
		return nil, nil, err
	}
	jt := <-p.done
	if jt.err != nil {
		return nil, nil, fmt.Errorf("canary: %w", jt.err)
	}
	r := toTuneResult(jt.result)
	if err := checkResult(r); err != nil {
		problems = append(problems, fmt.Sprintf("replay canary: %v", err))
	} else if def.golden {
		if err := matchGolden(r); err != nil {
			problems = append(problems, fmt.Sprintf("replay canary: %v", err))
		}
	}

	before := obs.Default().Gather()
	evBefore := p.events.Stats()
	cacheBefore := p.cache.Stats()
	res := &tracedResult{}
	start := time.Now()
	deadline := start.Add(dur)
	stopReads := make(chan struct{})
	var wg sync.WaitGroup
	if def.backend == "prefilled" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.readLoop(def.readRate, stopReads, res)
		}()
	}
	err = p.driveClosedLoop(def, seed, deadline, res)
	close(stopReads)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if res.checkFailed > 0 {
		problems = append(problems, fmt.Sprintf("replay: %d done jobs failed an output check", res.checkFailed))
	}
	rate := float64(len(res.jobs)) / dur.Seconds()
	if rec == nil {
		return map[string]float64{"trace.jobs_per_s": rate}, problems, nil
	}
	after := obs.Default().Gather()
	evAfter := p.events.Stats()
	cacheAfter := p.cache.Stats()

	m := res.layerMetrics()
	m["trace.jobs_per_s"] = rate
	n := float64(len(res.jobs))
	delta := func(name string) float64 { return counterSum(after, name) - counterSum(before, name) }
	m["core.executions_per_job"] = delta("core_executions_total") / n
	fsyncs := delta("wal_fsyncs_total")
	m["wal.fsyncs_per_job"] = fsyncs / n
	m["wal.records_per_fsync"] = 0
	if fsyncs > 0 {
		m["wal.records_per_fsync"] = delta("wal_appends_total") / fsyncs
	}
	m["wal.fsync_ms_p50"] = sketchQuantile(after, "wal_fsync_seconds", "p50") * 1000
	hits := float64(cacheAfter.Hits - cacheBefore.Hits)
	lookups := hits + float64(cacheAfter.Misses-cacheBefore.Misses)
	m["simcache.hit_ratio"] = 0
	if lookups > 0 {
		m["simcache.hit_ratio"] = hits / lookups
	}
	m["storage.recover_s"] = p.timed.recoverS
	m["storage.recovered_records"] = float64(recovered)
	m["history.records"] = float64(p.svc.Store().Len())
	m["obs.events_per_job"] = float64(evAfter.Published-evBefore.Published) / n
	m["obs.events_dropped"] = float64(evAfter.Dropped - evBefore.Dropped)
	m["jobs.refused"] = float64(res.refused)
	m["telemetry.query_ms"] = median(res.telQuery)
	m["history.query_ms"] = median(res.histQ)
	m["jobs.failed"] = float64(res.failed)
	m["jobs.unconverged"] = float64(res.unconverged)
	return m, problems, nil
}

// driveClosedLoop keeps def.outstanding jobs in flight until the deadline
// and collects each finished job's trace.
func (p *inproc) driveClosedLoop(def workloadDef, seed int64, deadline time.Time, res *tracedResult) error {
	stream := newSpecStream(seed, def.mix, def.tenants, "t")
	ids := make(map[*jobTrace]string)
	fill := func() error {
		for len(ids) < def.outstanding && time.Now().Before(deadline) {
			id, jt, err := p.submit(stream.next())
			if err == jobs.ErrQueueFull || err == jobs.ErrBackpressure {
				res.refused++
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if err != nil {
				return err
			}
			ids[jt] = id
		}
		return nil
	}
	if err := fill(); err != nil {
		return err
	}
	for len(ids) > 0 {
		var jt *jobTrace
		select {
		case jt = <-p.done:
		case <-time.After(60 * time.Second):
			return fmt.Errorf("no job finished in 60s with %d in flight", len(ids))
		}
		id := ids[jt]
		delete(ids, jt)
		final, err := p.engine.Wait(context.Background(), id)
		if err != nil {
			return err
		}
		if jt.err != nil && isTuningVerdict(jt.err.Error()) {
			res.unconverged++
		} else if jt.err != nil {
			res.failed++
		} else if checkResult(toTuneResult(jt.result)) != nil {
			res.checkFailed++
		} else {
			if p.rec != nil {
				if err := p.rec.harvest(jt); err != nil {
					return err
				}
			}
			if time.Now().Before(deadline) {
				res.jobs = append(res.jobs, jt)
				res.finals = append(res.finals, final)
			}
		}
		if err := fill(); err != nil {
			return err
		}
	}
	return nil
}

// readLoop issues the ops-reads mix in-process, calling the layers the
// HTTP handlers call, and times the history and telemetry queries.
func (p *inproc) readLoop(rate float64, stop <-chan struct{}, res *tracedResult) {
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		switch allRoutes[k%len(allRoutes)] {
		case routeHistory:
			t0 := time.Now()
			p.svc.Store().Query(history.Filter{MaxN: 50})
			res.histQ = append(res.histQ, ms(time.Since(t0)))
		case routeEffectiveness:
			_, _ = p.svc.Effectiveness(prefillTenant, prefillWorkload)
		case routeQuery:
			now := time.Now()
			t0 := time.Now()
			p.tel.Query(queryMetric, nil, now.Add(-time.Hour), now, 15*time.Second)
			res.telQuery = append(res.telQuery, ms(time.Since(t0)))
		case routeMetrics:
			obs.Default().Gather()
		case routeHealthz:
			p.engine.Stats()
			p.events.Stats()
			p.backend.Stats()
		default:
			p.events.Snapshot(0)
		}
	}
}

// layerMetrics reduces the finished jobs' spans to per-layer self times
// and counts.
func (res *tracedResult) layerMetrics() map[string]float64 {
	m := make(map[string]float64)
	n := float64(len(res.jobs))
	if n == 0 {
		return m
	}
	var (
		selfMS                         = map[string]float64{}
		recordMS, eventUS, acqMS       []float64
		proposeMS, submitMS            []float64
		trials, runs, fits, fitPoints  float64
		spans, warm, attributedMS, rMS float64
	)
	for i, jt := range res.jobs {
		self := selfTimes(jt.spans)
		sum := int64(0)
		for k, v := range self {
			selfMS[k] += float64(v) / 1e6
			sum += v
		}
		attributedMS += float64(sum) / 1e6
		f := res.finals[i]
		if f.StartedAt != nil && f.FinishedAt != nil {
			rMS += ms(f.FinishedAt.Sub(*f.StartedAt))
		}
		nTrials := 0
		for _, s := range jt.spans {
			switch s.Key {
			case "tuner.trial":
				nTrials++
			case "spark.run":
				runs++
			}
		}
		trials += float64(nTrials)
		if nTrials > 0 {
			proposeMS = append(proposeMS, float64(self["tuner.trial"])/1e6/float64(nTrials))
		}
		spans += float64(jt.tracer.Len())
		fits += float64(jt.fits)
		fitPoints += float64(jt.fitPoints)
		for _, d := range jt.recordNS {
			recordMS = append(recordMS, float64(d)/1e6)
		}
		for _, d := range jt.eventNS {
			eventUS = append(eventUS, float64(d)/1e3)
		}
		for _, a := range jt.acqS {
			acqMS = append(acqMS, a*1000)
		}
		submitMS = append(submitMS, float64(jt.submitNS)/1e6)
		if jt.result.DISC.WarmStarted {
			warm++
		}
	}
	per := func(k string) float64 { return selfMS[k] / n }
	var waitMS, runMS []float64
	for _, f := range res.finals {
		if f.StartedAt != nil && f.FinishedAt != nil {
			waitMS = append(waitMS, ms(f.StartedAt.Sub(f.SubmittedAt)))
			runMS = append(runMS, ms(f.FinishedAt.Sub(*f.StartedAt)))
		}
	}
	wait := summarize(waitMS, 0.9)
	m["jobs.submit_ms"] = median(submitMS)
	m["jobs.queue_wait_ms_p50"] = wait.P50
	m["jobs.queue_wait_ms_p90"] = wait.Tail
	m["jobs.run_ms_p50"] = median(runMS)
	m["jobs.run_ms_mean"] = mean(runMS)
	m["core.pipeline_self_ms"] = per("core.pipeline")
	m["core.tune_cloud_self_ms"] = per("core.tune_cloud")
	m["core.probe_self_ms"] = per("core.probe")
	m["core.tune_disc_self_ms"] = per("core.tune_disc")
	m["core.baseline_self_ms"] = per("core.baseline")
	m["core.warm_started_ratio"] = warm / n
	m["tuner.self_ms"] = per("tuner.trial")
	m["tuner.propose_ms"] = median(proposeMS)
	m["tuner.acq_ms"] = median(acqMS)
	m["tuner.trials_per_job"] = trials / n
	m["gp.fit_ms"] = per("gp.fit")
	m["gp.predict_ms"] = per("gp.predict")
	m["gp.fits_per_job"] = fits / n
	m["gp.fit_points_mean"] = 0
	if fits > 0 {
		m["gp.fit_points_mean"] = fitPoints / fits
	}
	m["spark.run_ms"] = per("spark.run")
	m["spark.runs_per_job"] = runs / n
	rec := summarize(recordMS, 0.9)
	m["storage.append_record_ms"] = per("storage.append_record")
	m["storage.append_record_ms_p50"] = rec.P50
	m["storage.append_record_ms_p90"] = rec.Tail
	m["storage.append_event_us"] = median(eventUS)
	m["obs.spans_per_job"] = spans / n

	// Shares of the job's own run span, and how much of the engine's run
	// time the spans account for.
	runSpan := attributedMS / n
	core := 0.0
	for k, v := range selfMS {
		if strings.HasPrefix(k, "core.") {
			core += v / n
		}
	}
	m["attribution.unattributed_ms"] = per("jobs.run")
	m["attribution.coverage"] = attributedMS / rMS
	m["share.storage"] = (per("storage.append_record") + per("storage.append_event")) / runSpan
	m["share.tuner_gp"] = (per("tuner.trial") + per("gp.fit") + per("gp.predict")) / runSpan
	m["share.spark"] = per("spark.run") / runSpan
	m["share.core"] = core / runSpan
	m["share.unattributed"] = per("jobs.run") / runSpan
	return m
}

// counterSum totals every series of a counter family.
func counterSum(s obs.Snapshot, name string) float64 {
	for _, f := range s.Families {
		if f.Name == name {
			t := 0.0
			for _, ser := range f.Series {
				t += ser.Value
			}
			return t
		}
	}
	return 0
}

// sketchQuantile reads a sketched histogram's quantile ("p50") from its
// first series.
func sketchQuantile(s obs.Snapshot, name, q string) float64 {
	for _, f := range s.Families {
		if f.Name == name && len(f.Series) > 0 {
			return f.Series[0].Quantiles[q]
		}
	}
	return 0
}
