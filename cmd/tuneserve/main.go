// Command tuneserve exposes the seamless-tuning service over HTTP — a
// demonstration of the paper's vision of configuration tuning offered as
// a cloud service: tenants submit workloads and high-level objectives,
// the provider runs both tuning stages and keeps the cross-tenant
// execution history. Tuning runs on a bounded worker pool: each tenant's
// submissions execute in FIFO order, distinct tenants tune in parallel.
//
// Endpoints (all errors arrive as {"error":{"code","message"}}):
//
//	POST /v1/jobs            {"tenant","workload","inputGB"[,"objective"][,"surrogate"][,"pruning"]} → 202 + job; poll for the result
//	GET  /v1/jobs/{id}       job state: queued|running|done|failed (+ result payload)
//	GET  /v1/jobs            all jobs in submission order
//	POST /v1/tune            synchronous wrapper: enqueues and waits for the pipeline result
//	GET  /v1/jobs/{id}/trace the job's tuning trace as Chrome trace_event JSON
//	GET  /v1/jobs/{id}/events the job's telemetry stream as SSE (?from= or Last-Event-ID to replay)
//	GET  /v1/jobs/{id}/explain the tuner's decision process: per-phase EI trace, surrogate calibration, stall verdicts
//	GET  /v1/events          the server-wide telemetry stream as SSE
//	GET  /v1/tenants/{id}/usage one tenant's accrued trials/spend/attainment
//	GET  /v1/usage           every tenant's accounting
//	GET  /dashboard          zero-dependency live HTML dashboard over the event stream
//	GET  /v1/workloads       registered (tenant, workload) pairs
//	GET  /v1/history         ?tenant=&workload=&limit=
//	GET  /v1/effectiveness   ?tenant=&workload=
//	GET  /v1/query           ?metric=&from=&to=&step= range query over the embedded telemetry time-series store
//	GET  /v1/alerts          every alert rule's lifecycle state (firing first)
//	GET  /healthz            readiness: uptime, build info, worker-pool and event-bus occupancy
//	GET  /metrics            Prometheus text exposition (?format=json for the JSON mirror with sketch quantiles)
//
// Usage:
//
//	tuneserve -addr :8642 -seed 1 -workers 4 [-debug-addr :8643]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seamlesstune/internal/core"
)

func main() {
	fs := flag.NewFlagSet("tuneserve", flag.ExitOnError)
	addr := fs.String("addr", ":8642", "listen address")
	debugAddr := fs.String("debug-addr", "", "optional listen address for net/http/pprof profiling endpoints (kept off the API port)")
	seed := fs.Int64("seed", 1, "simulation seed")
	params := fs.Int("params", 12, "Spark parameters tuned per session (1-41)")
	cloudBudget := fs.Int("cloud-budget", 10, "stage-1 execution budget")
	discBudget := fs.Int("disc-budget", 25, "stage-2 execution budget")
	workers := fs.Int("workers", 4, "tuning worker pool size (concurrent pipelines)")
	maxQueued := fs.Int("max-queued", 0, "max unfinished jobs admitted at once (0 = unbounded)")
	transferThreshold := fs.Float64("transfer-threshold", 0,
		"similarity gate for cross-workload warm-starting (0 = default; >1 disables transfer for strict replayability)")
	statePath := fs.String("state", "", "JSON history file to import once into the -data-dir write-ahead log at startup (skipped when the log already holds history; requires -data-dir)")
	dataDir := fs.String("data-dir", "", "directory for the write-ahead log (selects the wal backend: O(1) durable appends, group commit, compaction, crash recovery)")
	backendName := fs.String("backend", "", "persistence backend: wal or memory (default: wal with -data-dir, memory without)")
	fsyncInterval := fs.Duration("fsync-interval", 0, "WAL group-commit window: how long concurrent appends coalesce before one fsync (0 = 2ms)")
	segmentBytes := fs.Int64("segment-bytes", 0, "WAL segment roll threshold in bytes (0 = 8 MiB)")
	compactSegments := fs.Int("compact-segments", 0, "sealed WAL segments that trigger a background compaction (0 = 4; negative disables)")
	simCache := fs.Bool("simcache", true, "memoize simulator executions across tenants (bit-identical results, content-derived seeds)")
	simCacheCap := fs.Int("simcache-capacity", 0, "evaluation cache entry bound (0 = default)")
	eventsCap := fs.Int("events-capacity", 0, "telemetry event ring capacity (0 = default)")
	telemetryInterval := fs.Duration("telemetry-interval", time.Second, "metrics sampling period of the embedded time-series store (raw tier resolution)")
	telemetryRetention := fs.Duration("telemetry-retention", 24*time.Hour, "how far back the coarsest telemetry rollup tier retains history")
	alertRules := fs.String("alert-rules", "", "path to a JSON alert rules file (empty = built-in defaults: telemetry loss, fsync latency, queue backlog, SLO burn rate)")
	surrogateKind := fs.String("surrogate", "", "default surrogate model for BayesOpt sessions: gp (exact, default), rffgp, or forest; per-request \"surrogate\" overrides")
	prune := fs.Bool("prune", false, "enable significance-aware config-space pruning for every stage-2 session (per-request \"pruning\" opts in individually)")
	diagnostics := fs.Bool("diagnostics", true, "publish tuner explainability diagnostics (decide/model_health/stall events, /v1/jobs/{id}/explain); trajectories are identical either way")
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}

	srv, err := newServer(serverConfig{
		Seed:               *seed,
		Params:             *params,
		CloudBudget:        *cloudBudget,
		DISCBudget:         *discBudget,
		Workers:            *workers,
		MaxQueued:          *maxQueued,
		TransferThreshold:  *transferThreshold,
		StatePath:          *statePath,
		DataDir:            *dataDir,
		Backend:            *backendName,
		FsyncInterval:      *fsyncInterval,
		SegmentBytes:       *segmentBytes,
		CompactSegments:    *compactSegments,
		SimCache:           *simCache,
		SimCacheCapacity:   *simCacheCap,
		EventsCapacity:     *eventsCap,
		TelemetryInterval:  *telemetryInterval,
		TelemetryRetention: *telemetryRetention,
		AlertRules:         *alertRules,
		Surrogate:          *surrogateKind,
		Pruning:            *prune,
		DisableDiagnostics: !*diagnostics,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		// Profiling lives on its own listener so it is never exposed on
		// the tenant-facing port, and only when explicitly asked for.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("tuneserve pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("tuneserve: pprof listener: %v", err)
			}
		}()
	}

	// No WriteTimeout: SSE streams stay open for the life of a job or a
	// dashboard. Header and idle timeouts bound clients that never finish
	// a request or never close a kept-alive connection.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("tuneserve listening on %s (seed %d, %d params, %d workers)", *addr, *seed, *params, *workers)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Drain the worker pool and flush unsaved history before exiting.
	srv.Close()
}

// serverConfig bundles the tunables of newServer so main and tests share
// one construction path.
type serverConfig struct {
	Seed        int64
	Params      int
	CloudBudget int
	DISCBudget  int
	// Workers sizes the tuning worker pool (minimum 1).
	Workers int
	// MaxQueued bounds the number of unfinished jobs admitted at once
	// (0 = unbounded); when full, submissions get 429 queue_full.
	MaxQueued int
	// TransferThreshold gates cross-workload warm-starting (0 = default;
	// above 1 disables transfer, making results independent of how
	// concurrent sessions interleave).
	TransferThreshold float64
	// StatePath names a JSON-array history file that startup imports
	// once into the write-ahead log under DataDir (see importState).
	StatePath string
	// DataDir, when set, persists history and events through the
	// segmented write-ahead log (the wal backend).
	DataDir string
	// Backend forces a persistence backend ("wal" or "memory"); empty
	// infers one from DataDir.
	Backend string
	// FsyncInterval bounds the WAL group-commit window (0 = 2ms).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment roll threshold (0 = 8 MiB).
	SegmentBytes int64
	// CompactSegments is the sealed-segment count that triggers background
	// WAL compaction (0 = 4; negative disables).
	CompactSegments int
	// SimCache enables the cross-tenant simulator evaluation cache
	// (content-derived execution seeds; see core.WithSimCache).
	SimCache bool
	// SimCacheCapacity bounds the cache's entry count (0 = default).
	SimCacheCapacity int
	// EventsCapacity sizes the telemetry event ring (0 = default).
	EventsCapacity int
	// TelemetryInterval is the embedded time-series store's sampling
	// period (0 = 1s); TelemetryRetention bounds its coarsest rollup
	// tier's history (0 = 24h).
	TelemetryInterval  time.Duration
	TelemetryRetention time.Duration
	// AlertRules names a JSON alert rules file ("" = built-in defaults).
	AlertRules string
	// Surrogate sets the server-wide default model backend for BayesOpt
	// sessions ("" = exact gp); individual requests may override it.
	Surrogate string
	// Pruning turns on significance-aware config-space pruning for every
	// stage-2 session (default off; individual requests opt in with
	// "pruning": true).
	Pruning bool
	// DisableDiagnostics silences the tuner explainability diagnostics —
	// decide, model_health, and stall events and the per-phase content of
	// /v1/jobs/{id}/explain. The zero value keeps them on, matching the
	// core default (-diagnostics=false sets this).
	DisableDiagnostics bool
}

func (c serverConfig) options() []core.Option {
	opts := []core.Option{
		core.WithSeed(c.Seed),
		core.WithBudgets(c.CloudBudget, c.DISCBudget),
		core.WithTransferThreshold(c.TransferThreshold),
	}
	if c.Surrogate != "" {
		opts = append(opts, core.WithSurrogate(c.Surrogate))
	}
	if c.Pruning {
		opts = append(opts, core.WithPruning(true))
	}
	if c.DisableDiagnostics {
		opts = append(opts, core.WithDiagnostics(false))
	}
	return opts
}
