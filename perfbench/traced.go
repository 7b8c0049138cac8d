package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"seamlesstune/internal/core"
	"seamlesstune/internal/gp"
	"seamlesstune/internal/history"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/simcache"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/telemetry"
	"seamlesstune/internal/workload"
)

// jobSpanCap bounds one job's obs spans: a pipeline records about 80 (35
// trials, 39 simulator runs, 5 phases).
const jobSpanCap = 512

// jobTrace is everything recorded on one job's path.
type jobTrace struct {
	tenant string
	tracer *obs.Tracer
	// spans are the benchmark's own (jobs.run, storage, gp) plus, after
	// harvest, the program's obs spans.
	spans             []span
	fits, fitPoints   int
	recordNS, eventNS []int64
	submitNS          int64
	acqS              []float64
	result            core.PipelineResult
	err               error
}

// recorder is the benchmark's span recorder. Calls into storage carry a
// tenant and are attributed through it; gp hooks carry nothing, so they
// are attributed through the goroutine running the job.
type recorder struct {
	base     time.Time
	mu       sync.Mutex
	byTenant tenantJobs
	byGoid   map[uint64]*jobTrace
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), byTenant: tenantJobs{}, byGoid: map[uint64]*jobTrace{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) begin(jt *jobTrace) {
	r.mu.Lock()
	r.byTenant[jt.tenant] = jt
	r.byGoid[goid()] = jt
	r.mu.Unlock()
}

func (r *recorder) end(jt *jobTrace, start int64) {
	end := r.now()
	r.mu.Lock()
	delete(r.byTenant, jt.tenant)
	delete(r.byGoid, goid())
	jt.spans = append(jt.spans, span{Key: "jobs.run", Start: start, End: end})
	r.mu.Unlock()
}

func (r *recorder) storageCall(tenant, key string, start, end int64) {
	r.mu.Lock()
	if jt := r.byTenant.attribute(tenant, span{Key: key, Start: start, End: end}); jt != nil {
		if key == "storage.append_record" {
			jt.recordNS = append(jt.recordNS, end-start)
		} else {
			jt.eventNS = append(jt.eventNS, end-start)
		}
	}
	r.mu.Unlock()
}

func (r *recorder) gpHook(key string) func(int, time.Duration) {
	return func(points int, d time.Duration) {
		end := r.now()
		g := goid()
		r.mu.Lock()
		if jt := r.byGoid[g]; jt != nil {
			jt.spans = append(jt.spans, span{Key: key, Start: end - int64(d), End: end})
			if key == "gp.fit" {
				jt.fits++
				jt.fitPoints += points
			}
		}
		r.mu.Unlock()
	}
}

// harvest converts the job's obs spans onto the recorder's clock.
func (r *recorder) harvest(jt *jobTrace) error {
	if jt.tracer.Len() >= jobSpanCap {
		return fmt.Errorf("job span ring overflowed (%d spans)", jobSpanCap)
	}
	for _, s := range jt.tracer.Spans(0) {
		if s.Instant {
			continue
		}
		start := int64(s.Start.Sub(r.base))
		key := s.Cat + "." + strings.ReplaceAll(s.Name, "-", "_")
		switch s.Cat {
		case "tuner":
			key = "tuner.trial"
			for _, a := range s.Args[:s.NArgs] {
				if a.Key == "acq_s" {
					jt.acqS = append(jt.acqS, a.Num)
				}
			}
		case "spark":
			key = "spark.run"
		}
		jt.spans = append(jt.spans, span{Key: key, Start: start, End: start + int64(s.Dur)})
	}
	return nil
}

// goid returns the calling goroutine's ID from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// timedBackend is the storage decorator handed to core.WithStorage: it
// times recovery and the two appends on the job path (AppendRecord, the
// sync group-commit wait, and AppendEvent, the event sink's enqueue) and
// forwards the rest untimed.
type timedBackend struct {
	storage.Backend
	rec      *recorder
	recoverS float64
}

func (b *timedBackend) Recover(st *history.Store) ([]obs.Event, error) {
	t0 := time.Now()
	ev, err := b.Backend.Recover(st)
	b.recoverS = time.Since(t0).Seconds()
	return ev, err
}

func (b *timedBackend) AppendRecord(rec history.Record) error {
	s := b.rec.now()
	err := b.Backend.AppendRecord(rec)
	b.rec.storageCall(rec.Tenant, "storage.append_record", s, b.rec.now())
	return err
}

func (b *timedBackend) AppendEvent(e obs.Event) error {
	s := b.rec.now()
	err := b.Backend.AppendEvent(e)
	b.rec.storageCall(e.Tenant, "storage.append_event", s, b.rec.now())
	return err
}

// inproc is tuneserve's wiring rebuilt from the public packages, as
// newServer does it: storage.Open → core.NewService → jobs.NewEngine,
// the event log with the WAL sink and the usage pump, the telemetry store,
// and, with a nil recorder, the server's one shared tracer. A recorder
// adds the benchmark's instrumentation: a tracer per job, the storage
// decorator and its own gp hooks in place of the tuner's.
type inproc struct {
	backend storage.Backend
	timed   *timedBackend // nil when untraced
	tracer  *obs.Tracer   // shared by every job; nil when traced
	svc     *core.Service
	engine  *jobs.Engine
	events  *obs.EventLog
	tel     *telemetry.Store
	cache   *simcache.Cache
	rec     *recorder
	done    chan *jobTrace
	stopped sync.WaitGroup
}

func openInproc(cfg storage.Config, rec *recorder, outstanding int) (*inproc, error) {
	backend, err := storage.Open(cfg)
	if err != nil {
		return nil, err
	}
	p := &inproc{
		backend: backend,
		cache:   simcache.New(0),
		rec:     rec,
		done:    make(chan *jobTrace, outstanding),
	}
	if rec != nil {
		p.timed = &timedBackend{Backend: backend, rec: rec}
		p.backend = p.timed
	} else {
		p.tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	p.svc, err = core.NewService(serviceOptions(p.cache, p.backend)...)
	if err != nil {
		backend.Close()
		return nil, err
	}
	p.engine = jobs.NewEngine(2, 0)
	p.events = obs.NewEventLog(0)
	if backend.Name() == "wal" {
		p.events.SetSink(func(e obs.Event) { p.backend.AppendEvent(e) })
	}
	p.engine.SetBackpressure(p.backend.Saturated)
	p.engine.SetCacheStats(p.cache.Stats)
	p.tel = telemetry.NewStore(telemetry.Config{Interval: time.Second, Retention: 24 * time.Hour})
	p.tel.Restore(p.backend.RecoveredTelemetry())
	p.tel.SetPersist(p.backend.AppendTelemetry)
	p.backend.SetTelemetrySource(p.tel.PersistedState)
	p.tel.Start()
	// Two subscribers, as in the server: the usage pump and the
	// server-wide stream the load generator holds.
	_, usage := p.events.SubscribeFrom(0, 4096)
	_, stream := p.events.SubscribeFrom(0, 1024)
	p.stopped.Add(2)
	go func() {
		defer p.stopped.Done()
		for e := range usage.C() {
			switch e.Type {
			case obs.EventTrial:
				p.engine.AddUsage(e.Tenant, 1, e.CostUSD)
				if e.BestSoFar != 0 {
					p.engine.SetAttainment(e.Tenant, e.Attainment)
				}
			case obs.EventExecution:
				p.engine.AddUsage(e.Tenant, 1, e.CostUSD)
			}
		}
	}()
	go func() {
		defer p.stopped.Done()
		for range stream.C() {
		}
	}()
	return p, nil
}

// serviceOptions are tuneserve's defaults: seed 1, budgets 10 and 25, 12
// Spark parameters, the simulator cache on.
func serviceOptions(cache *simcache.Cache, b storage.Backend) []core.Option {
	return []core.Option{
		core.WithSeed(1),
		core.WithBudgets(10, 25),
		core.WithTransferThreshold(0),
		core.WithSparkSpace(sparkSpace),
		core.WithSimCache(cache),
		core.WithStorage(b),
	}
}

func (p *inproc) close() {
	p.tel.Stop()
	p.engine.Close()
	_ = p.backend.FlushEvents(p.events.Snapshot(0))
	p.events.Close()
	p.stopped.Wait()
	_ = p.backend.Close()
}

// submit enqueues one pipeline the way tuneserve's POST /v1/jobs does;
// traced, the job's spans go to its own tracer.
func (p *inproc) submit(spec jobSpec) (string, *jobTrace, error) {
	wl, err := workload.ByName(spec.Workload)
	if err != nil {
		return "", nil, err
	}
	reg := core.Registration{Tenant: spec.Tenant, Workload: wl, InputBytes: int64(spec.InputGB * (1 << 30))}
	jt := &jobTrace{tenant: spec.Tenant}
	var tr obs.Trace
	if p.rec != nil {
		jt.tracer = obs.NewTracer(jobSpanCap)
		tr = obs.Trace{T: jt.tracer, ID: 1}
	} else {
		tr = obs.Trace{T: p.tracer, ID: p.tracer.NewTraceID()}
	}
	idCh := make(chan string, 1)
	t0 := time.Now()
	job, err := p.engine.SubmitOpts(spec.Tenant, func(ctx context.Context) (any, error) {
		id := <-idCh
		var start int64
		if p.rec != nil {
			start = p.rec.now()
			p.rec.begin(jt)
		}
		ctx = obs.NewContext(ctx, tr)
		ctx = obs.NewEmitterContext(ctx, obs.Emitter{Log: p.events, Session: id, Tenant: spec.Tenant, Workload: wl.Name()})
		jt.result, jt.err = p.svc.TunePipeline(ctx, reg)
		if p.rec != nil {
			p.rec.end(jt, start)
		}
		p.done <- jt
		return nil, jt.err
	}, jobs.Options{Surrogate: p.svc.Surrogate(), Diagnostics: p.svc.Diagnostics()})
	jt.submitNS = int64(time.Since(t0))
	if err != nil {
		return "", nil, err
	}
	idCh <- job.ID
	return job.ID, jt, nil
}

// toTuneResult renders a pipeline result as tuneserve's response does.
func toTuneResult(res core.PipelineResult) tuneResult {
	return tuneResult{
		Cluster:         res.Cloud.Cluster.String(),
		Config:          res.DISC.Config,
		DefaultRuntimeS: res.DefaultRuntimeS,
		TunedRuntimeS:   res.TunedRuntimeS,
		ImprovementPct:  res.Improvement() * 100,
		TuningCostUSD:   res.TuningCostUSD,
		WarmStarted:     res.DISC.WarmStarted,
	}
}

// installGPHooks routes gp fit and predict timings to the recorder. It
// replaces the hooks internal/tuner installs, so the gp_* families of
// obs.Default stop moving in this process.
func (r *recorder) installGPHooks() {
	gp.SetHooks(gp.Hooks{Fit: r.gpHook("gp.fit"), Predict: r.gpHook("gp.predict")})
}
