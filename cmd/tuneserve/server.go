package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/confspace"
	"seamlesstune/internal/core"
	"seamlesstune/internal/history"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/simcache"
	"seamlesstune/internal/slo"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/surrogate"
	"seamlesstune/internal/telemetry"
	"seamlesstune/internal/workload"
)

// server wraps a core.Service behind HTTP handlers. The service is safe
// for concurrent use; tuning work runs on the job engine's worker pool
// (per-tenant FIFO, distinct tenants in parallel), and the execution
// history persists through a storage backend — WAL appends or nothing.
type server struct {
	svc     *core.Service
	mux     *http.ServeMux
	engine  *jobs.Engine
	started time.Time
	// tracer ring-buffers tuning spans; traces maps job IDs to their
	// trace IDs for GET /v1/jobs/{id}/trace.
	tracer  *obs.Tracer
	traceMu sync.Mutex
	traces  map[string]uint64
	// events is the live telemetry bus: sessions publish, SSE handlers
	// and the usage pump subscribe. The storage backend taps the stream
	// via SetSink.
	events   *obs.EventLog
	pumpDone chan struct{}
	// storage is the persistence tier: history records append through the
	// store's persist hook, events through the log's sink, and admission
	// control sheds submissions when it saturates.
	storage storage.Backend
	// telemetry samples the metrics registry into the embedded
	// time-series store behind /v1/query; alerts evaluates the rule set
	// on every sample and surfaces lifecycle state on /v1/alerts.
	telemetry *telemetry.Store
	alerts    *telemetry.Engine
}

func newServer(cfg serverConfig) (*server, error) {
	opts := cfg.options()
	if cfg.Params > 0 {
		opts = append(opts, core.WithSparkSpace(confspace.SparkSubspace(cfg.Params)))
	}
	var cache *simcache.Cache
	if cfg.SimCache {
		cache = simcache.New(cfg.SimCacheCapacity)
		opts = append(opts, core.WithSimCache(cache))
	}
	scfg := storage.Config{
		Backend:         cfg.Backend,
		DataDir:         cfg.DataDir,
		FsyncInterval:   cfg.FsyncInterval,
		SegmentBytes:    cfg.SegmentBytes,
		CompactSegments: cfg.CompactSegments,
	}
	if cfg.Backend == "snapshot" || (cfg.StatePath != "" && scfg.Resolve() != "wal") {
		return nil, errors.New("-state FILE imports into the write-ahead log and requires -data-dir (the snapshot backend is retired)")
	}
	backend, err := storage.Open(scfg)
	if err != nil {
		return nil, err
	}
	opts = append(opts, core.WithStorage(backend))
	svc, err := core.NewService(opts...)
	if err != nil {
		backend.Close()
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	s := &server{
		svc:      svc,
		mux:      http.NewServeMux(),
		engine:   jobs.NewEngine(workers, cfg.MaxQueued),
		started:  time.Now(),
		tracer:   obs.NewTracer(obs.DefaultTraceCapacity),
		traces:   make(map[string]uint64),
		events:   obs.NewEventLog(cfg.EventsCapacity),
		pumpDone: make(chan struct{}),
		storage:  backend,
	}
	// Tap the event stream into the backend (asynchronous, bounded, shed
	// at the queue bound).
	s.events.SetSink(func(e obs.Event) { backend.AppendEvent(e) })
	s.engine.SetBackpressure(backend.Saturated)
	go s.usagePump()
	if cache != nil {
		s.engine.SetCacheStats(cache.Stats)
	}
	// Telemetry tier: restore rollup history from the backend's replay,
	// then persist newly sealed buckets through it, and let compaction
	// snapshots carry the full sealed state forward. The alert engine
	// evaluates on every sample and publishes transitions onto the event
	// bus (and from there the SSE stream and the WAL sink).
	tel := telemetry.NewStore(telemetry.Config{
		Interval:  cfg.TelemetryInterval,
		Retention: cfg.TelemetryRetention,
	})
	recovered := backend.RecoveredTelemetry()
	tel.Restore(recovered)
	tel.SetPersist(backend.AppendTelemetry)
	backend.SetTelemetrySource(tel.PersistedState)
	// Import after the telemetry source is installed: the import's
	// compaction folds every segment, rollup records included.
	if cfg.StatePath != "" {
		if err := importState(cfg.StatePath, svc.Store(), backend); err != nil {
			s.shutdownPartial()
			return nil, err
		}
	}
	rules, err := telemetry.LoadRules(cfg.AlertRules)
	if err != nil {
		s.shutdownPartial()
		return nil, fmt.Errorf("loading alert rules: %w", err)
	}
	alerts, err := telemetry.NewEngine(tel, rules)
	if err != nil {
		s.shutdownPartial()
		return nil, fmt.Errorf("alert rules: %w", err)
	}
	alerts.SetSink(s.events.Publish)
	tel.OnSample(alerts.Eval)
	if len(recovered) > 0 {
		// Replay restored history through the rules silently, then emit a
		// single firing event per rule still firing — a restart inside an
		// incident re-pages once instead of replaying the flap history.
		now := time.Now()
		alerts.Rearm(now.Add(-time.Hour), now, tel.TierWidths()[2])
	}
	tel.Start()
	s.telemetry = tel
	s.alerts = alerts
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/tenants/{id}/usage", s.handleTenantUsage)
	s.mux.HandleFunc("GET /v1/usage", s.handleUsage)
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/history", s.handleHistory)
	s.mux.HandleFunc("GET /v1/effectiveness", s.handleEffectiveness)
	s.mux.HandleFunc("POST /v1/admin/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/admin/storage", s.handleStorage)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	return s, nil
}

// shutdownPartial unwinds a half-constructed server on a newServer error
// path: the engine, the event bus, the usage pump, and the backend.
func (s *server) shutdownPartial() {
	s.engine.Close()
	s.events.Close()
	<-s.pumpDone
	s.storage.Close()
}

// Close drains the worker pool, releases every SSE subscriber, and
// closes the backend (its final flush) — in that order, so the flushed
// events include the final ones of draining jobs and in-flight SSE
// handlers return before the process exits.
func (s *server) Close() {
	// Stop sampling first: a graceful stop loses at most the open (<1
	// window) bucket per tier — everything sealed is already queued.
	if s.telemetry != nil {
		s.telemetry.Stop()
	}
	s.engine.Close()
	s.events.Close()
	<-s.pumpDone
	if err := s.storage.Close(); err != nil {
		log.Printf("tuneserve: closing storage: %v", err)
	}
}

// handleCompact forces a storage compaction: the WAL backend folds its
// sealed segments into a snapshot record. Returns the post-compaction
// storage stats.
func (s *server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	if err := s.storage.Compact(); err != nil {
		writeError(w, http.StatusInternalServerError, "compact_failed", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.storage.Stats())
}

// importState is -state's one-shot import of a JSON-array history file
// (the format the retired snapshot backend wrote) into a WAL that holds
// no history yet: the records load into the store and one compaction
// writes them as a snapshot. Replay applies a snapshot only once all of
// its chunks are durable, so a crash mid-import leaves the whole file or
// none of it, and the next start imports again. A missing file imports
// nothing; a malformed one fails startup.
func importState(path string, st *history.Store, backend storage.Backend) error {
	if n := st.Len(); n > 0 {
		log.Printf("tuneserve: -state %s not imported: the WAL already holds %d history records", path, n)
		return nil
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := st.Load(f); err != nil {
		return fmt.Errorf("importing -state %s: %w", path, err)
	}
	if err := backend.Compact(); err != nil {
		return fmt.Errorf("importing -state %s: %w", path, err)
	}
	log.Printf("tuneserve: imported %d history records from %s", st.Len(), path)
	return nil
}

// handleStorage reports the storage backend's stats — the data behind
// tunectl storage.
func (s *server) handleStorage(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.storage.Stats())
}

// usagePump folds the event stream into the engine's per-tenant
// accounting: every spend-bearing event accrues trials and dollars, and
// trial events with an incumbent update the tenant's SLO attainment.
// The subscription buffer is generous; under extreme pressure events
// drop (counted in /healthz) rather than stall publishers.
func (s *server) usagePump() {
	defer close(s.pumpDone)
	// Fold the replay before tailing: the pump goroutine may be scheduled
	// after sessions have already published (SubscribeFrom's atomic
	// replay+register guarantees the two halves have no gap or overlap).
	replay, sub := s.events.SubscribeFrom(0, 4096)
	defer sub.Close()
	for _, e := range replay {
		s.foldUsage(e)
	}
	for e := range sub.C() {
		s.foldUsage(e)
	}
}

// foldUsage accrues one telemetry event into the engine's accounting.
func (s *server) foldUsage(e obs.Event) {
	switch e.Type {
	case obs.EventTrial:
		s.engine.AddUsage(e.Tenant, 1, e.CostUSD)
		if e.BestSoFar != 0 {
			s.engine.SetAttainment(e.Tenant, e.Attainment)
		}
	case obs.EventExecution:
		s.engine.AddUsage(e.Tenant, 1, e.CostUSD)
	}
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := api.HealthResponse{
		Status:       "ok",
		UptimeS:      time.Since(s.started).Seconds(),
		Engine:       s.engine.Stats(),
		Events:       s.events.Stats(),
		Storage:      s.storage.Stats(),
		Telemetry:    s.telemetry.Stats(),
		AlertsFiring: s.alerts.Firing(),
	}
	if n, err := s.svc.PersistHealth(); n > 0 {
		resp.Status = "degraded"
		resp.PersistFailures = n
		if err != nil {
			resp.PersistError = err.Error()
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.GoVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// registration validates a tune request against the workload registry.
func registration(req api.TuneRequest) (core.Registration, error) {
	wl, err := workload.ByName(req.Workload)
	if err != nil {
		return core.Registration{}, fmt.Errorf("unknown workload %q (known: %s)",
			req.Workload, strings.Join(workload.Names(), ", "))
	}
	if req.InputGB <= 0 {
		return core.Registration{}, fmt.Errorf("inputGB must be positive")
	}
	if req.Tenant == "" {
		return core.Registration{}, fmt.Errorf("tenant is required")
	}
	if req.Surrogate != "" && !surrogate.Valid(req.Surrogate) {
		return core.Registration{}, fmt.Errorf("unknown surrogate %q (accepted: %s)",
			req.Surrogate, strings.Join(surrogate.Names(), ", "))
	}
	reg := core.Registration{
		Tenant:     req.Tenant,
		Workload:   wl,
		InputBytes: int64(req.InputGB * (1 << 30)),
		Surrogate:  req.Surrogate,
		Pruning:    req.Pruning,
	}
	if o := req.Objective; o != nil {
		if o.WithinPctOfOptimal < 0 || o.DeadlineS < 0 || o.BudgetUSDPerRun < 0 || o.TuningBudgetUSD < 0 {
			return core.Registration{}, fmt.Errorf("objective fields must be non-negative")
		}
		reg.Objective = slo.Objective{
			WithinPctOfOptimal: o.WithinPctOfOptimal,
			DeadlineS:          o.DeadlineS,
			BudgetUSDPerRun:    o.BudgetUSDPerRun,
		}
		reg.TuningBudgetUSD = o.TuningBudgetUSD
	}
	return reg, nil
}

func toTuneResponse(res core.PipelineResult) api.TuneResponse {
	resp := api.TuneResponse{
		Cluster:         res.Cloud.Cluster.String(),
		Config:          res.DISC.Config,
		DefaultRuntimeS: res.DefaultRuntimeS,
		TunedRuntimeS:   res.TunedRuntimeS,
		ImprovementPct:  res.Improvement() * 100,
		TuningCostUSD:   res.TuningCostUSD,
		WarmStarted:     res.DISC.WarmStarted,
		Surrogate:       res.Surrogate,
		Pruning:         res.Pruning,
		ActiveDims:      res.DISC.ActiveDims,
		TotalDims:       res.DISC.TotalDims,
		PrunedKnobs:     res.DISC.PrunedKnobs,
	}
	if res.DISC.WarmStarted {
		resp.WarmSource = res.DISC.Source.String()
	}
	return resp
}

// maxJobSpecBytes bounds a job-spec request body. A real spec is a few
// hundred bytes.
const maxJobSpecBytes = 1 << 20

// submit validates a tune request and enqueues the pipeline as a job.
func (s *server) submit(w http.ResponseWriter, r *http.Request) (jobs.Job, bool) {
	// Strict: a misspelled field ("prunning") must not silently tune
	// without the option it meant, and nothing may follow the spec.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
	dec.DisallowUnknownFields()
	var req api.TuneRequest
	err := dec.Decode(&req)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("unexpected data after the JSON object")
	}
	if err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "invalid_argument",
				"job spec exceeds %d bytes", tooLarge.Limit)
			return jobs.Job{}, false
		}
		writeError(w, http.StatusBadRequest, "invalid_argument", "bad request body: %v", err)
		return jobs.Job{}, false
	}
	reg, err := registration(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return jobs.Job{}, false
	}
	// Each job tunes under its own trace ID so GET /v1/jobs/{id}/trace
	// can slice this job's spans out of the shared ring buffer, and under
	// an emitter keyed by its job ID so GET /v1/jobs/{id}/events can
	// filter the shared event stream. The job ID is only known after
	// Submit returns, so the task blocks on idCh for it (buffered: the
	// send below never blocks, and a task the engine discards unstarted
	// leaks nothing).
	tid := s.tracer.NewTraceID()
	idCh := make(chan string, 1)
	// Resolve the surrogate now so the job record reflects the backend
	// the session will actually fit, not just what the request asked for.
	resolved := reg.Surrogate
	if resolved == "" {
		resolved = s.svc.Surrogate()
	}
	pruning := reg.Pruning || s.svc.Pruning()
	job, err := s.engine.SubmitOpts(reg.Tenant, func(ctx context.Context) (any, error) {
		ctx = obs.NewContext(ctx, obs.Trace{T: s.tracer, ID: tid})
		ctx = obs.NewEmitterContext(ctx, obs.Emitter{
			Log:      s.events,
			Session:  <-idCh,
			Tenant:   reg.Tenant,
			Workload: reg.Workload.Name(),
		})
		res, err := s.svc.TunePipeline(ctx, reg)
		if err != nil {
			return nil, err
		}
		return toTuneResponse(res), nil
	}, jobs.Options{Surrogate: resolved, Pruning: pruning, Diagnostics: s.svc.Diagnostics()})
	if err != nil {
		code, status := "internal", http.StatusInternalServerError
		switch err {
		case jobs.ErrQueueFull:
			code, status = "queue_full", http.StatusTooManyRequests
		case jobs.ErrBackpressure:
			// The persistence tier is saturated: shed with a retry hint
			// instead of queueing work whose results cannot be made
			// durable at the current rate.
			code, status = "storage_backpressure", http.StatusTooManyRequests
			_, retry := s.engine.Backpressure()
			if retry <= 0 {
				retry = time.Second
			}
			w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		}
		writeError(w, status, code, "%v", err)
		return jobs.Job{}, false
	}
	idCh <- job.ID
	s.traceMu.Lock()
	s.traces[job.ID] = tid
	s.traceMu.Unlock()
	return job, true
}

// handleSubmitJob enqueues a tuning pipeline and returns the job
// immediately — the asynchronous face of the service.
func (s *server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.submit(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.engine.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.List())
}

// handleTune is the backward-compatible synchronous wrapper: it enqueues
// a job like POST /v1/jobs and waits for the result, so one tenant's
// synchronous calls still serialize behind the tenant's queue while
// distinct tenants tune in parallel.
func (s *server) handleTune(w http.ResponseWriter, r *http.Request) {
	job, ok := s.submit(w, r)
	if !ok {
		return
	}
	final, err := s.engine.Wait(r.Context(), job.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "waiting for job %s: %v", job.ID, err)
		return
	}
	if final.State == jobs.StateFailed {
		writeError(w, http.StatusInternalServerError, "tuning_failed", "%s", final.Error)
		return
	}
	writeJSON(w, http.StatusOK, final.Result)
}

func (s *server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Store().Workloads())
}

func (s *server) handleHistory(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid_argument", "bad limit %q", v)
			return
		}
		limit = n
	}
	recs := s.svc.Store().Query(history.Filter{
		Tenant:   r.URL.Query().Get("tenant"),
		Workload: r.URL.Query().Get("workload"),
		MaxN:     limit,
	})
	writeJSON(w, http.StatusOK, recs)
}

func (s *server) handleEffectiveness(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	wl := r.URL.Query().Get("workload")
	if tenant == "" || wl == "" {
		writeError(w, http.StatusBadRequest, "invalid_argument", "tenant and workload are required")
		return
	}
	rep, err := s.svc.Effectiveness(tenant, wl)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorEnvelope{Error: api.Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is already written; all we can do is log.
		log.Printf("tuneserve: encoding response: %v", err)
	}
}
