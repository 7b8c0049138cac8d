// Package core implements the paper's primary contribution: a seamless,
// provider-side configuration-tuning service for big-data analytics.
//
// The service realizes the four principles of §VI on top of the
// simulated substrates:
//
//  1. Tuning with minimal user expertise: a tenant registers a workload
//     and an SLO; the two-stage pipeline of Fig. 1 picks the cloud
//     configuration (stage 1) and the DISC/Spark configuration (stage 2)
//     automatically.
//  2. Resilience to change: managed workloads stream their production
//     runtimes through adaptive re-tuning detectors; input growth or
//     interference shifts trigger bounded re-tuning automatically.
//  3. Bounded, provider-side tuning cost: every tuning execution is
//     accounted in the multi-tenant history store, warm-started from
//     similar tenants' histories (transfer learning, §V-B), and budgeted.
//  4. SLO augmentation: the service reports tuning effectiveness as the
//     gap to the best runtime of similar workloads ever run in the cloud
//     (§IV-D's practical substitute for the unknowable optimum).
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seamlesstune/internal/cloud"
	"seamlesstune/internal/confspace"
	"seamlesstune/internal/history"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/sensitivity"
	"seamlesstune/internal/simcache"
	"seamlesstune/internal/slo"
	"seamlesstune/internal/spark"
	"seamlesstune/internal/stat"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/surrogate"
	"seamlesstune/internal/transfer"
	"seamlesstune/internal/tuner"
	"seamlesstune/internal/workload"
)

// Service is the multi-tenant seamless-tuning service. Construct with
// NewService.
//
// A Service is safe for concurrent use: it holds no mutable tuning state
// beyond the (concurrency-safe) history store and a submission counter.
// Every tuning session derives its own random stream from
// (seed, entry point, tenant, workload, submission #), so sessions are
// race-free, order-independent across tenants, and replayable.
type Service struct {
	catalog    *cloud.Catalog
	store      *history.Store
	sparkSpace *confspace.Space
	seed       int64

	minNodes, maxNodes int
	cloudBudget        int
	discBudget         int
	probeRuns          int
	interference       cloud.InterferenceLevel
	transferThreshold  float64
	simCache           *simcache.Cache
	surrogateKind      string
	pruning            bool
	diagnostics        bool

	// storage, when set, is the durable persistence backend: NewService
	// recovers the store from it and hooks appends into it.
	storage storage.Backend

	// persistFailures counts history records the persist hook failed to
	// make durable; lastPersistErr (under persistMu) is the most recent
	// failure. Together they are the health signal behind /healthz's
	// degraded status — the in-memory store stays authoritative for the
	// process, but silent non-durability must be visible.
	persistFailures atomic.Int64
	persistMu       sync.Mutex
	lastPersistErr  error

	// subMu guards subs, the per-(kind, tenant, workload) submission
	// counters that make repeated submissions of the same workload draw
	// distinct (but still deterministic) random streams.
	subMu sync.Mutex
	subs  map[string]int

	// fpMu guards fps, the warm-start fingerprint cache: one entry per
	// workload key, valid while the key's history Version is unchanged.
	fpMu sync.Mutex
	fps  map[history.WorkloadKey]cachedFingerprint
}

// Option configures a Service.
type Option func(*Service)

// WithCatalog sets the instance catalog (default cloud.DefaultCatalog).
func WithCatalog(c *cloud.Catalog) Option { return func(s *Service) { s.catalog = c } }

// WithStore supplies an existing execution-history store — e.g. one
// restored from disk — instead of an empty one.
func WithStore(st *history.Store) Option {
	return func(s *Service) {
		if st != nil {
			s.store = st
		}
	}
}

// WithStorage attaches a persistence backend: NewService recovers the
// history store from it, then hooks the store so every appended record
// is persisted as it lands. The service owns neither the backend's
// lifecycle nor the event stream — close the backend after the service,
// and wire the event sink separately (obs.EventLog.SetSink).
func WithStorage(b storage.Backend) Option {
	return func(s *Service) { s.storage = b }
}

// WithSeed seeds all service randomness (default 1).
func WithSeed(seed int64) Option { return func(s *Service) { s.seed = seed } }

// WithSparkSpace restricts stage-2 tuning to a subspace of the Spark
// parameters (default: the full 41-knob space).
func WithSparkSpace(space *confspace.Space) Option {
	return func(s *Service) { s.sparkSpace = space }
}

// WithNodeRange bounds stage-1 cluster sizes (default [2, 16]).
func WithNodeRange(min, max int) Option {
	return func(s *Service) { s.minNodes, s.maxNodes = min, max }
}

// WithBudgets sets the stage-1 and stage-2 execution budgets (defaults
// 12 and 30 — the bounded tuning cost of §IV-C).
func WithBudgets(cloudRuns, discRuns int) Option {
	return func(s *Service) { s.cloudBudget, s.discBudget = cloudRuns, discRuns }
}

// WithInterference sets the co-location level tenant environments see
// (default none).
func WithInterference(level cloud.InterferenceLevel) Option {
	return func(s *Service) { s.interference = level }
}

// WithTransferThreshold sets the similarity gate for cross-workload
// warm-starting (0 = transfer.DefaultSimilarityThreshold). Similarity is
// in (0, 1], so a threshold above 1 disables transfer entirely — which
// also makes concurrent tuning results bit-identical to sequential ones,
// since warm-start content otherwise depends on which other sessions have
// already landed in the history store.
func WithTransferThreshold(t float64) Option {
	return func(s *Service) { s.transferThreshold = t }
}

// WithSurrogate sets the default surrogate model backend Bayesian-
// optimization sessions fit — a surrogate.Names() entry: "gp" (exact
// Gaussian process, the default), "rffgp" (random-feature GP
// approximation), or "forest" (random forest). Per-registration choices
// override it. NewService rejects unknown names.
func WithSurrogate(name string) Option {
	return func(s *Service) { s.surrogateKind = name }
}

// WithPruning sets the service-wide default for significance-aware
// config-space pruning of stage-2 (DISC) sessions: when enabled, the
// Bayesian-optimization session runs a Tuneful-style sensitivity analysis
// alongside the search and collapses onto the significant knobs once the
// importances converge. Default off — sessions without pruning keep
// trajectories bit-identical to pre-pruning services. Per-registration
// choices override it.
func WithPruning(enabled bool) Option {
	return func(s *Service) { s.pruning = enabled }
}

// WithDiagnostics toggles tuner explainability and model-health
// diagnostics (default on): Bayesian-optimization sessions with an
// emitter on the context publish a decide event per EI-guided proposal
// and an internal/diagnose monitor scores the surrogate online, adding
// model_health and stall events. Diagnostics observe the tuner — they
// never touch its random stream — so trajectories are bit-identical
// with them on or off; turning them off only silences the extra event
// families.
func WithDiagnostics(enabled bool) Option {
	return func(s *Service) { s.diagnostics = enabled }
}

// WithSimCache enables the shared simulator evaluation cache (nil —
// the default — disables it). The trade-off is a change of determinism
// contract, which is why caching is opt-in:
//
//   - Cache off (nil): every execution draws from the session's
//     sequential random stream, the legacy behavior. Results are
//     reproducible run-for-run against pre-cache versions of the
//     service.
//   - Cache on: every execution draws from a fresh stream whose seed is
//     derived from the service seed and the execution's content
//     (workload, input size, cluster, configuration, interference
//     factors). Sessions remain fully deterministic and replayable —
//     same seed, same submissions, same results — and re-evaluating a
//     configuration point anywhere in the service (retries, elites,
//     other tenants tuning the same workload) returns the bit-identical
//     cached Result instead of a fresh simulation.
//
// Executions still land in the history store on hits: the cache
// memoizes the simulator, not the bookkeeping.
func WithSimCache(c *simcache.Cache) Option {
	return func(s *Service) { s.simCache = c }
}

// NewService returns a configured service, rejecting unusable option
// combinations (empty node range, non-positive budgets, missing
// substrates).
func NewService(opts ...Option) (*Service, error) {
	s := &Service{
		catalog:     cloud.DefaultCatalog(),
		store:       &history.Store{},
		sparkSpace:  confspace.SparkSpace(),
		seed:        1,
		minNodes:    2,
		maxNodes:    16,
		cloudBudget: 12,
		discBudget:  30,
		probeRuns:   3,
		diagnostics: true,
		subs:        make(map[string]int),
		fps:         make(map[history.WorkloadKey]cachedFingerprint),
	}
	for _, o := range opts {
		o(s)
	}
	if s.catalog == nil {
		return nil, errors.New("core: nil instance catalog")
	}
	if s.sparkSpace == nil {
		return nil, errors.New("core: nil Spark configuration space")
	}
	if s.minNodes < 1 || s.maxNodes < s.minNodes {
		return nil, fmt.Errorf("core: invalid node range [%d, %d]", s.minNodes, s.maxNodes)
	}
	if s.cloudBudget <= 0 || s.discBudget <= 0 {
		return nil, fmt.Errorf("core: budgets must be positive (cloud %d, disc %d)", s.cloudBudget, s.discBudget)
	}
	if s.transferThreshold < 0 {
		return nil, fmt.Errorf("core: negative transfer threshold %v", s.transferThreshold)
	}
	if s.surrogateKind != "" && !surrogate.Valid(s.surrogateKind) {
		return nil, fmt.Errorf("core: unknown surrogate %q (accepted: %s)",
			s.surrogateKind, strings.Join(surrogate.Names(), ", "))
	}
	if s.storage != nil {
		// Recover before hooking: replayed records were already persisted
		// and must not be re-appended to the backend.
		// The replayed events are discarded: nothing reads them, and on
		// the wal backend they are every event in the live segments.
		if _, err := s.storage.Recover(s.store); err != nil {
			return nil, fmt.Errorf("core: recovering history: %w", err)
		}
		b := s.storage
		s.store.SetPersist(func(r history.Record) {
			if err := b.AppendRecord(r); err != nil {
				// The record is in the in-memory store but NOT durable
				// (disk full, sticky WAL write error). Count it, keep the
				// error for PersistHealth, and log — but rate-limited,
				// because a sticky backend error fails every subsequent
				// append.
				n := s.persistFailures.Add(1)
				s.persistMu.Lock()
				s.lastPersistErr = err
				s.persistMu.Unlock()
				if n == 1 || n%100 == 0 {
					log.Printf("core: persisting history record seq=%d failed (%d failures so far): %v", r.Seq, n, err)
				}
			}
		})
	}
	return s, nil
}

// PersistHealth reports how many history records the persist hook failed
// to make durable and the most recent failure (nil when every record
// reached the backend). A non-zero count means completed tuning results
// exist only in memory — the signal /healthz degrades on.
func (s *Service) PersistHealth() (failures int64, last error) {
	failures = s.persistFailures.Load()
	if failures == 0 {
		return 0, nil
	}
	s.persistMu.Lock()
	last = s.lastPersistErr
	s.persistMu.Unlock()
	return failures, last
}

// Pruning returns the service-wide default for significance-aware
// config-space pruning.
func (s *Service) Pruning() bool { return s.pruning }

// Diagnostics reports whether tuner explainability diagnostics are on.
func (s *Service) Diagnostics() bool { return s.diagnostics }

// Surrogate returns the service's default surrogate backend name.
func (s *Service) Surrogate() string {
	if s.surrogateKind != "" {
		return s.surrogateKind
	}
	return surrogate.KindGP
}

// resolveSurrogate returns the backend a session for reg will fit: the
// registration's explicit choice, else the service default.
func (s *Service) resolveSurrogate(reg Registration) string {
	if reg.Surrogate != "" {
		return reg.Surrogate
	}
	return s.Surrogate()
}

// resolvePruning reports whether reg's stage-2 session prunes: the
// registration's opt-in, else the service default.
func (s *Service) resolvePruning(reg Registration) bool {
	return reg.Pruning || s.pruning
}

// newBayesOpt builds a session's tuner with the resolved surrogate
// backend and a surrogate seed derived from the session's base seed.
// Derivation is stateless — the session's sequential stream is never
// consumed — so the default exact-GP path remains bit-identical to
// pre-surrogate-tier services.
func (s *Service) newBayesOpt(space *confspace.Space, reg Registration, base int64) *tuner.BayesOpt {
	bo := tuner.NewBayesOpt(space)
	bo.Surrogate = s.resolveSurrogate(reg)
	bo.SurrogateSeed = stat.DeriveSeed(base, "surrogate")
	return bo
}

// sessionSeed assigns the next submission number for (kind, tenant,
// workload) and derives the session's base seed from it. Submission
// numbers advance per workload key, so as long as one tenant's
// submissions keep their order (the job engine's per-tenant FIFO
// guarantees this), every session sees the same stream regardless of how
// sessions of different tenants interleave.
func (s *Service) sessionSeed(kind string, reg Registration) int64 {
	key := kind + "\x00" + reg.Tenant + "\x00" + reg.Workload.Name()
	s.subMu.Lock()
	n := s.subs[key]
	s.subs[key] = n + 1
	s.subMu.Unlock()
	return stat.DeriveSeed(s.seed, kind, reg.Tenant, reg.Workload.Name(), strconv.Itoa(n))
}

// Store exposes the multi-tenant execution history.
func (s *Service) Store() *history.Store { return s.store }

// CacheStats snapshots the evaluation cache (zero Stats when disabled).
func (s *Service) CacheStats() simcache.Stats { return s.simCache.Stats() }

// SparkSpace exposes the DISC search space in use.
func (s *Service) SparkSpace() *confspace.Space { return s.sparkSpace }

// Registration describes one tenant workload submitted for tuning.
type Registration struct {
	Tenant     string
	Workload   workload.Workload
	InputBytes int64
	Objective  slo.Objective
	// TuningBudgetUSD caps the session's total tuning spend for live SLO
	// accounting (0 = unconstrained). Breaching it — in actual or
	// projected spend — emits slo_violation events; it does not abort the
	// session.
	TuningBudgetUSD float64
	// Surrogate optionally overrides the service's default surrogate
	// model backend for this workload's sessions (a surrogate.Names()
	// entry; empty = service default).
	Surrogate string
	// Pruning opts this workload's stage-2 sessions into significance-
	// aware config-space pruning (see WithPruning). Off by default: an
	// unpruned session's trajectory is bit-identical to pre-pruning
	// services.
	Pruning bool
}

// Validate reports whether the registration is usable.
func (r Registration) Validate() error {
	if r.Tenant == "" {
		return errors.New("core: registration needs a tenant")
	}
	if r.Workload == nil {
		return errors.New("core: registration needs a workload")
	}
	if r.InputBytes <= 0 {
		return fmt.Errorf("core: input size %d must be positive", r.InputBytes)
	}
	if r.Surrogate != "" && !surrogate.Valid(r.Surrogate) {
		return fmt.Errorf("core: unknown surrogate %q (accepted: %s)",
			r.Surrogate, strings.Join(surrogate.Names(), ", "))
	}
	return nil
}

// execute runs one configuration on one cluster, records it in the
// history, and returns the measurement. The execution inherits the
// context's trace, so simulator spans nest under the calling phase.
func (s *Service) execute(ctx context.Context, reg Registration, cluster cloud.ClusterSpec, cfg confspace.Config, factors cloud.Factors, rng *rand.Rand, tel *sessionTelemetry, phase string) (spark.Result, tuner.Measurement) {
	mExecutions.Inc()
	job := reg.Workload.Job(reg.InputBytes)
	conf := spark.FromConfig(s.sparkSpace, cfg)
	opts := spark.RunOpts{Trace: obs.FromContext(ctx)}
	var res spark.Result
	if s.simCache != nil {
		// Cached mode: the execution's randomness comes from a stream
		// seeded by its content, not from the shared session stream, so
		// identical points — across retries, tuners, and tenants — are
		// identical executions and therefore cache hits. See WithSimCache
		// for the determinism contract.
		res = s.simCache.Run(job, conf, cluster, factors, opts, s.executionSeed(reg, cluster, cfg, factors))
	} else {
		res = spark.RunWith(job, conf, cluster, factors, opts, rng)
	}
	s.store.Append(history.Record{
		Tenant:     reg.Tenant,
		Workload:   reg.Workload.Name(),
		InputBytes: reg.InputBytes,
		Cluster:    cluster.String(),
		Config:     cfg,
		RuntimeS:   res.RuntimeS,
		CostUSD:    res.CostUSD,
		Failed:     res.Failed,
		Reason:     res.Reason,
		Metrics:    history.MetricsFromResult(res),
	})
	tel.recordExecution(phase, cluster, res)
	return res, tuner.Measurement{Runtime: res.RuntimeS, Cost: res.CostUSD, Failed: res.Failed}
}

// executionSeed derives the content-determined seed of one cached-mode
// execution: a pure function of the service seed and everything that
// defines the simulation point.
func (s *Service) executionSeed(reg Registration, cluster cloud.ClusterSpec, cfg confspace.Config, factors cloud.Factors) int64 {
	return stat.DeriveSeed(s.seed, "exec",
		reg.Workload.Name(),
		strconv.FormatInt(reg.InputBytes, 10),
		cluster.String(),
		cfg.Canonical(),
		factorsKey(factors),
	)
}

// factorsKey renders interference factors with exact bit precision.
func factorsKey(f cloud.Factors) string {
	return strconv.FormatFloat(f.CPU, 'x', -1, 64) + "," +
		strconv.FormatFloat(f.Net, 'x', -1, 64) + "," +
		strconv.FormatFloat(f.Disk, 'x', -1, 64)
}

// CloudChoice is the outcome of stage 1 (Fig. 1): a concrete cluster.
type CloudChoice struct {
	Cluster cloud.ClusterSpec
	Session tuner.Result
}

// TuneCloud runs stage 1: Bayesian optimization (CherryPick-style) over
// the instance-type × cluster-size space, executing the workload under
// the spark defaults-with-scaling configuration on each candidate.
// Cancelling ctx aborts the session between executions.
func (s *Service) TuneCloud(ctx context.Context, reg Registration) (CloudChoice, error) {
	if err := reg.Validate(); err != nil {
		return CloudChoice{}, err
	}
	tel := newSessionTelemetry(obs.EmitterFrom(ctx), reg, s.cloudBudget, s.diagnostics)
	tel.sessionStart()
	cc, err := s.tuneCloud(ctx, reg, s.sessionSeed("cloud", reg), tel)
	tel.sessionEnd(sessionOutcome(err))
	return cc, err
}

// tuneCloud is TuneCloud with the session's base seed fixed by the
// caller; TunePipeline uses it to keep both stages on one derived stream.
func (s *Service) tuneCloud(ctx context.Context, reg Registration, base int64, tel *sessionTelemetry) (CloudChoice, error) {
	defer phaseSpan(ctx, "tune-cloud")()
	cloudSpace, err := confspace.CloudSpace(s.catalog, s.minNodes, s.maxNodes)
	if err != nil {
		return CloudChoice{}, err
	}
	env := cloud.NewEnvironment(s.interference, stat.DeriveSeed(base, "env"))
	rng := stat.DeriveRNG(base, "search")
	bo := s.newBayesOpt(cloudSpace, reg, base)
	bo.InitSamples = 4
	tel.attachDiagnostics(bo, "cloud")
	obj := func(cfg confspace.Config) tuner.Measurement {
		spec, err := confspace.ClusterFromConfig(s.catalog, cloudSpace, cfg)
		if err != nil {
			return tuner.Measurement{Runtime: 0, Failed: true}
		}
		// Stage 1 measures with a scaled reference DISC configuration so
		// the cluster choice is not confounded by a bad Spark config.
		_, m := s.execute(ctx, reg, spec, s.referenceConf(spec), env.Next(), rng, tel, "cloud")
		return m
	}
	if h := tel.trialHook("cloud"); h != nil {
		ctx = tuner.WithTrialHook(ctx, h)
	}
	res, err := tuner.RunContext(ctx, bo, obj, s.cloudBudget, rng)
	if err != nil {
		return CloudChoice{}, err
	}
	if !res.Found {
		return CloudChoice{}, fmt.Errorf("core: no cloud configuration succeeded for %s/%s", reg.Tenant, reg.Workload.Name())
	}
	spec, err := confspace.ClusterFromConfig(s.catalog, cloudSpace, res.Best.Config)
	if err != nil {
		return CloudChoice{}, err
	}
	return CloudChoice{Cluster: spec, Session: res}, nil
}

// referenceConf scales Spark defaults to a cluster: executors sized to
// the nodes, parallelism to the cores. This mimics the provider's
// "sensible baseline" used while the cloud choice is being made.
func (s *Service) referenceConf(spec cloud.ClusterSpec) confspace.Config {
	cfg := s.sparkSpace.Default()
	set := func(name string, v float64) {
		if _, err := s.sparkSpace.Param(name); err == nil {
			p, _ := s.sparkSpace.Param(name)
			cfg[name] = p.Clamp(v)
		}
	}
	coresPer := 4
	if spec.Instance.VCPUs < 4 {
		coresPer = spec.Instance.VCPUs
	}
	execs := spec.TotalCores() / coresPer
	set(confspace.ParamExecutorCores, float64(coresPer))
	set(confspace.ParamExecutorInstances, float64(execs))
	memPer := spec.Instance.MemoryGB * 1024 / float64(maxInt(spec.Instance.VCPUs/coresPer, 1)) * 0.55
	set(confspace.ParamExecutorMemoryMB, memPer)
	set(confspace.ParamDriverMemoryMB, 4096)
	set(confspace.ParamDefaultParallelism, float64(2*spec.TotalCores()))
	set(confspace.ParamShufflePartitions, float64(2*spec.TotalCores()))
	return cfg
}

// DISCChoice is the outcome of stage 2: a Spark configuration.
type DISCChoice struct {
	Config  confspace.Config
	Session tuner.Result
	// WarmStarted reports whether a similar workload's history seeded the
	// model, and Source identifies it.
	WarmStarted bool
	Source      history.WorkloadKey
	Similarity  float64
	// Pruned reports the session ran with significance-aware config-space
	// pruning; ActiveDims/TotalDims give the final search dimension
	// against the full space, and PrunedKnobs the knobs pinned when the
	// session ended (empty if the analysis never converged on a shrink).
	Pruned      bool
	ActiveDims  int
	TotalDims   int
	PrunedKnobs []string
}

// TuneDISC runs stage 2 on a fixed cluster: probe runs fingerprint the
// workload, the most similar workload in the store (possibly another
// tenant's) warm-starts a Bayesian-optimization session, and the session
// runs to the configured budget. Cancelling ctx aborts the session
// between executions.
func (s *Service) TuneDISC(ctx context.Context, reg Registration, cluster cloud.ClusterSpec) (DISCChoice, error) {
	if err := reg.Validate(); err != nil {
		return DISCChoice{}, err
	}
	tel := newSessionTelemetry(obs.EmitterFrom(ctx), reg, s.probeRuns+s.discBudget, s.diagnostics)
	tel.sessionStart()
	dc, err := s.tuneDISC(ctx, reg, cluster, s.sessionSeed("disc", reg), tel)
	tel.sessionEnd(sessionOutcome(err))
	return dc, err
}

// tuneDISC is TuneDISC with the session's base seed fixed by the caller.
func (s *Service) tuneDISC(ctx context.Context, reg Registration, cluster cloud.ClusterSpec, base int64, tel *sessionTelemetry) (DISCChoice, error) {
	if err := cluster.Validate(); err != nil {
		return DISCChoice{}, err
	}
	defer phaseSpan(ctx, "tune-disc")()
	env := cloud.NewEnvironment(s.interference, stat.DeriveSeed(base, "env"))
	rng := stat.DeriveRNG(base, "search")

	// Probe with the reference configuration to fingerprint the workload.
	endProbe := phaseSpan(ctx, "probe")
	ref := s.referenceConf(cluster)
	for i := 0; i < s.probeRuns; i++ {
		if err := ctx.Err(); err != nil {
			endProbe()
			return DISCChoice{}, err
		}
		s.execute(ctx, reg, cluster, ref, env.Next(), rng, tel, "probe")
	}
	endProbe()

	choice := DISCChoice{}
	sel, trials := s.warmStart(reg)
	if sel.Accepted && len(trials) > 0 {
		choice.WarmStarted = true
		choice.Source = sel.Source
		choice.Similarity = sel.Similarity
	} else {
		trials = nil
	}

	// Pruning sessions wrap BayesOpt in the significance-analysis tier;
	// plain sessions construct BayesOpt exactly as before, so their
	// trajectories stay bit-identical to pre-pruning services.
	var tn tuner.Tuner
	var pruned *tuner.PrunedBayesOpt
	if s.resolvePruning(reg) {
		pb := tuner.NewPrunedBayesOpt(s.sparkSpace)
		pb.Surrogate = s.resolveSurrogate(reg)
		pb.SurrogateSeed = stat.DeriveSeed(base, "surrogate")
		pb.Prune = sensitivity.Config{Seed: stat.DeriveSeed(base, "prune")}
		pb.Hook = tel.pruneHook("disc", s.sparkSpace.Names())
		if choice.WarmStarted {
			pb.WarmStart = trials
			pb.InitSamples = 3
		}
		pruned, tn = pb, pb
	} else {
		bo := s.newBayesOpt(s.sparkSpace, reg, base)
		if choice.WarmStarted {
			bo.WarmStart = trials
			bo.InitSamples = 3
		}
		tn = bo
	}
	tel.attachDiagnostics(tn, "disc")

	obj := func(cfg confspace.Config) tuner.Measurement {
		_, m := s.execute(ctx, reg, cluster, cfg, env.Next(), rng, tel, "disc")
		return m
	}
	if h := tel.trialHook("disc"); h != nil {
		ctx = tuner.WithTrialHook(ctx, h)
	}
	res, err := tuner.RunContext(ctx, tn, obj, s.discBudget, rng)
	if err != nil {
		return DISCChoice{}, err
	}
	if !res.Found {
		return DISCChoice{}, fmt.Errorf("core: no DISC configuration succeeded for %s/%s", reg.Tenant, reg.Workload.Name())
	}
	choice.Config = res.Best.Config
	choice.Session = res
	if pruned != nil {
		choice.Pruned = true
		choice.ActiveDims, choice.TotalDims = pruned.ActiveDims()
		if sub := pruned.Subspace(); sub != nil {
			choice.PrunedKnobs = sub.PrunedNames()
		}
	}
	return choice, nil
}

// warmStart fingerprints the target from its probe runs and looks for an
// acceptable transfer source among every other workload in the store.
// It reads the history in place (history.Store.View): the target's own
// fingerprint is computed fresh, every other key's comes from the
// fingerprint cache, and only the chosen source's records are turned
// into trials. The result is the one a full rescan would give.
func (s *Service) warmStart(reg Registration) (transfer.SourceSelection, []tuner.Trial) {
	self := history.WorkloadKey{Tenant: reg.Tenant, Workload: reg.Workload.Name()}
	var target transfer.Fingerprint
	var err error
	s.store.View(self.Tenant, self.Workload, func(recs []history.Record, _ history.Version) {
		target, err = transfer.FingerprintOf(transfer.WellConfigured(recs))
	})
	if err != nil {
		return transfer.SourceSelection{}, nil
	}
	candidates := make(map[history.WorkloadKey]transfer.Fingerprint)
	for _, key := range s.store.Workloads() {
		if key == self {
			continue
		}
		if fp, ok := s.fingerprint(key); ok {
			candidates[key] = fp
		}
	}
	if len(candidates) == 0 {
		return transfer.SourceSelection{}, nil
	}
	sel := transfer.SelectSource(target, candidates, s.transferThreshold)
	if !sel.Accepted {
		return sel, nil
	}
	var trials []tuner.Trial
	s.store.View(sel.Source.Tenant, sel.Source.Workload, func(recs []history.Record, _ history.Version) {
		// WarmStartTrials clamps every config into a new map, so nothing
		// of recs outlives the view.
		trials = transfer.WarmStartTrials(recs, s.sparkSpace, 20)
	})
	return sel, trials
}

// cachedFingerprint is one key's fingerprint at the history Version it
// was computed from; ok is false when the key had nothing to fingerprint.
type cachedFingerprint struct {
	v  history.Version
	fp transfer.Fingerprint
	ok bool
}

// fingerprint returns key's well-configured fingerprint, recomputing it
// only when the key's history Version moved since the cached one.
// Concurrent sessions may race to store entries of different Versions;
// whichever lands, a stale one is recomputed on its next read.
func (s *Service) fingerprint(key history.WorkloadKey) (transfer.Fingerprint, bool) {
	var c cachedFingerprint
	s.store.View(key.Tenant, key.Workload, func(recs []history.Record, v history.Version) {
		s.fpMu.Lock()
		c = s.fps[key]
		s.fpMu.Unlock()
		if c.v == v {
			return
		}
		fp, err := transfer.FingerprintOf(transfer.WellConfigured(recs))
		c = cachedFingerprint{v: v, fp: fp, ok: err == nil}
		s.fpMu.Lock()
		s.fps[key] = c
		s.fpMu.Unlock()
	})
	return c.fp, c.ok
}

// PipelineResult is the outcome of the full Fig. 1 pipeline.
type PipelineResult struct {
	Cloud CloudChoice
	DISC  DISCChoice
	// DefaultRuntimeS is the scaled-defaults runtime on the chosen
	// cluster, the improvement baseline of §V-C.
	DefaultRuntimeS float64
	// TunedRuntimeS is the best runtime found.
	TunedRuntimeS float64
	// TuningCostUSD totals both stages' execution cost.
	TuningCostUSD float64
	// Surrogate is the resolved surrogate backend both stages fitted.
	Surrogate string
	// Pruning reports whether stage 2 ran with significance-aware
	// config-space pruning (see DISC.ActiveDims for the outcome).
	Pruning bool
}

// Improvement returns the relative runtime improvement over the scaled
// defaults.
func (p PipelineResult) Improvement() float64 {
	return slo.ImprovementOverDefault(p.TunedRuntimeS, p.DefaultRuntimeS)
}

// TunePipeline runs both stages of Fig. 1 and reports the end-to-end
// outcome. The whole pipeline draws from one random stream derived from
// (seed, tenant, workload, submission #): two services with the same seed
// given the same submissions in the same per-tenant order produce
// identical results, no matter how many pipelines run concurrently.
// Cancelling ctx aborts the pipeline between executions.
func (s *Service) TunePipeline(ctx context.Context, reg Registration) (PipelineResult, error) {
	if err := reg.Validate(); err != nil {
		return PipelineResult{}, err
	}
	start := time.Now()
	defer func() { mPipelineSeconds.Observe(time.Since(start).Seconds()) }()
	defer phaseSpan(ctx, "pipeline")()
	// The session's execution budget: both stages' trials, the probe runs,
	// and the baseline measurement.
	tel := newSessionTelemetry(obs.EmitterFrom(ctx), reg, s.cloudBudget+s.probeRuns+s.discBudget+1, s.diagnostics)
	tel.sessionStart()
	base := s.sessionSeed("pipeline", reg)
	cc, err := s.tuneCloud(ctx, reg, stat.DeriveSeed(base, "cloud"), tel)
	if err != nil {
		tel.sessionEnd(sessionOutcome(err))
		return PipelineResult{}, err
	}
	dc, err := s.tuneDISC(ctx, reg, cc.Cluster, stat.DeriveSeed(base, "disc"), tel)
	if err != nil {
		tel.sessionEnd(sessionOutcome(err))
		return PipelineResult{}, err
	}
	// Measure the baseline once for the improvement report.
	endBaseline := phaseSpan(ctx, "baseline")
	env := cloud.NewEnvironment(s.interference, stat.DeriveSeed(base, "baseline-env"))
	rng := stat.DeriveRNG(base, "baseline")
	baseRes, _ := s.execute(ctx, reg, cc.Cluster, s.referenceConf(cc.Cluster), env.Next(), rng, tel, "baseline")
	endBaseline()
	res := PipelineResult{
		Cloud:           cc,
		DISC:            dc,
		DefaultRuntimeS: baseRes.RuntimeS,
		TunedRuntimeS:   dc.Session.Best.Runtime,
		TuningCostUSD:   cc.Session.TotalCost + dc.Session.TotalCost,
		Surrogate:       s.resolveSurrogate(reg),
		Pruning:         s.resolvePruning(reg),
	}
	tel.sessionEnd(fmt.Sprintf("tuned %.1fs vs default %.1fs (%.0f%% improvement) on %s",
		res.TunedRuntimeS, res.DefaultRuntimeS, res.Improvement()*100, cc.Cluster))
	return res, nil
}

// sessionOutcome renders a session's terminal detail string.
func sessionOutcome(err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "ok"
}

// BestKnownSecondsPerGB returns the best scale-normalized runtime
// (seconds per input GB) ever recorded for a workload type across all
// tenants — the §IV-D substitute for the unknowable optimum. ok is false
// when the store has no successful runs of that workload.
func (s *Service) BestKnownSecondsPerGB(workloadName string) (float64, bool) {
	best, found := 0.0, false
	for _, key := range s.store.Workloads() {
		if workloadName != "" && key.Workload != workloadName {
			continue
		}
		s.store.View(key.Tenant, key.Workload, func(recs []history.Record, _ history.Version) {
			if v, ok := bestSecondsPerGB(recs); ok && (!found || v < best) {
				best, found = v, true
			}
		})
	}
	return best, found
}

// bestSecondsPerGB is the least runtime per input GB among recs'
// successful runs with a known input size.
func bestSecondsPerGB(recs []history.Record) (best float64, found bool) {
	for _, r := range recs {
		if r.Failed || r.InputBytes <= 0 {
			continue
		}
		v := r.RuntimeS / (float64(r.InputBytes) / (1 << 30))
		if !found || v < best {
			best, found = v, true
		}
	}
	return best, found
}

// EffectivenessReport scores a tenant's workload against the SLO metric:
// its best achieved seconds/GB versus the cross-tenant best known.
type EffectivenessReport struct {
	Tenant        string
	Workload      string
	BestOwn       float64 // seconds per GB
	BestKnown     float64 // seconds per GB, across tenants
	Effectiveness float64 // relative gap (0 = at the best known)
}

// Effectiveness reports the SLO tuning-effectiveness metric for one
// tenant workload.
func (s *Service) Effectiveness(tenant, workloadName string) (EffectivenessReport, error) {
	var succeeded bool
	var bestOwn float64
	s.store.View(tenant, workloadName, func(recs []history.Record, _ history.Version) {
		for _, r := range recs {
			succeeded = succeeded || !r.Failed
		}
		bestOwn, _ = bestSecondsPerGB(recs)
	})
	if !succeeded {
		return EffectivenessReport{}, fmt.Errorf("core: no successful runs for %s/%s", tenant, workloadName)
	}
	bestKnown, _ := s.BestKnownSecondsPerGB(workloadName)
	return EffectivenessReport{
		Tenant:        tenant,
		Workload:      workloadName,
		BestOwn:       bestOwn,
		BestKnown:     bestKnown,
		Effectiveness: slo.Effectiveness(bestOwn, bestKnown),
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
