package tuner

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/gp"
	"seamlesstune/internal/surrogate"
)

// eiWorkers bounds the acquisition worker pool in BayesOpt.Next. It
// defaults to GOMAXPROCS; it is a variable (not a constant) so tests can
// pin it to 1 and to many workers and prove the results byte-identical.
// Workers write expected improvement into disjoint index ranges and the
// argmax is a single sequential scan, so the chosen candidate never
// depends on scheduling.
var eiWorkers = runtime.GOMAXPROCS(0)

// BayesOpt is CherryPick-style Bayesian optimization: a Gaussian process
// with a Matérn-5/2 kernel models log-runtime over the (unit-encoded)
// space, and the next configuration maximizes expected improvement over a
// random candidate pool. The first InitSamples evaluations come from a
// Latin-hypercube design.
type BayesOpt struct {
	Space *confspace.Space
	// InitSamples seeds the model before EI kicks in (default 2+dim/4,
	// at least 3 — CherryPick starts from a handful of samples).
	InitSamples int
	// Candidates is the EI candidate-pool size (default 500).
	Candidates int
	// WarmStart optionally pre-seeds the model with (config, runtime)
	// observations transferred from a similar workload (§V-B).
	WarmStart []Trial
	// StopEIFrac enables CherryPick's convergence rule: stop when the
	// best expected improvement falls below this fraction of the current
	// optimum (CherryPick uses 0.10). 0 disables early stopping.
	StopEIFrac float64
	// Surrogate selects the posterior backend by surrogate registry name:
	// "gp" (exact GP, the default — empty means the same), "rffgp"
	// (random-feature GP approximation), or "forest" (random forest).
	// Unknown names leave the tuner modelless, degrading every proposal to
	// a random draw; layered callers (core, tuneserve, tunectl) validate
	// names before a session starts.
	Surrogate string
	// SurrogateSeed drives the stochastic surrogate backends (random-
	// feature draws, forest resampling). Layered callers derive it from
	// the session seed — stat.DeriveSeed(seed, "surrogate") — so
	// trajectories replay bit-for-bit. The exact GP ignores it.
	SurrogateSeed int64
	// DecisionHook, when set, receives a DecisionRecord for every
	// EI-guided proposal, synchronously on the session goroutine. The
	// hook observes the decision after it is made and never touches the
	// RNG, so installing it cannot change a trajectory.
	DecisionHook DecisionHook

	pendingInit []confspace.Config
	// transferred counts the observations absorbed from WarmStart; the
	// rest of xs are the session's own evaluations.
	transferred int
	xs          [][]float64
	ys          []float64 // log-runtime
	model       surrogate.Model
	dirty       bool
	lastMaxEI   float64
	eiValid     bool
	// lastAcqSec is the wall time of the most recent acquisition step
	// (candidate pool, batched posterior, EI argmax); 0 for init-phase
	// proposals. Exposed to sessions through the acqTimed interface.
	lastAcqSec float64

	// Reused acquisition buffers: candidate pool, flat unit-cube encodings
	// (with per-candidate views), and expected-improvement values. They are
	// scratch space overwritten on every Next call.
	candBuf []confspace.Config
	encFlat []float64
	encView [][]float64
	eiBuf   []float64
	// topBuf is the DecisionRecord top-k scratch, reused per decision.
	topBuf []CandidateScore
}

var _ Tuner = (*BayesOpt)(nil)
var _ Stopper = (*BayesOpt)(nil)

// NewBayesOpt returns a Bayesian-optimization tuner over space.
func NewBayesOpt(space *confspace.Space) *BayesOpt {
	return &BayesOpt{Space: space}
}

// Name implements Tuner.
func (*BayesOpt) Name() string { return "bayesopt" }

func (t *BayesOpt) initSamples() int {
	if t.InitSamples > 0 {
		return t.InitSamples
	}
	n := 2 + t.Space.Dim()/4
	if n < 3 {
		n = 3
	}
	return n
}

func (t *BayesOpt) candidates() int {
	if t.Candidates > 0 {
		return t.Candidates
	}
	return 500
}

// Next implements Tuner.
func (t *BayesOpt) Next(rng *rand.Rand) confspace.Config {
	t.lastAcqSec = 0
	// Absorb warm-start observations once.
	if len(t.WarmStart) > 0 {
		for _, tr := range t.WarmStart {
			t.absorb(tr)
		}
		t.transferred += len(t.WarmStart)
		t.WarmStart = nil
	}
	if len(t.xs) < t.initSamples() {
		if len(t.pendingInit) == 0 {
			t.pendingInit = t.Space.LatinHypercube(rng, t.initSamples())
		}
		cfg := t.pendingInit[0]
		t.pendingInit = t.pendingInit[1:]
		return cfg
	}
	t.refit()
	if t.model == nil || !t.model.Fitted() {
		return t.Space.Random(rng)
	}
	acqStart := time.Now()
	best, _ := minOf(t.ys)
	n := t.candidates()

	// Draw the whole candidate pool up front. The model never touches the
	// RNG, so consuming all draws first is the exact draw sequence of the
	// old draw-predict-score loop.
	if cap(t.candBuf) < n {
		t.candBuf = make([]confspace.Config, n)
	}
	cands := t.candBuf[:n]
	for i := range cands {
		cands[i] = t.Space.Random(rng)
	}

	// Encode into one reused flat buffer with per-candidate views.
	dim := t.Space.Dim()
	if cap(t.encFlat) < n*dim {
		t.encFlat = make([]float64, n*dim)
		t.encView = make([][]float64, n)
	}
	flat, views := t.encFlat[:n*dim], t.encView[:n]
	for i, cfg := range cands {
		views[i] = t.Space.EncodeInto(cfg, flat[i*dim:(i+1)*dim:(i+1)*dim])
	}

	means, stds := t.model.PredictBatch(views)

	// Score expected improvement across a bounded worker pool. Each worker
	// owns a disjoint index range of eiBuf, so the fill is race-free and
	// the values are identical regardless of worker count.
	if cap(t.eiBuf) < n {
		t.eiBuf = make([]float64, n)
	}
	eis := t.eiBuf[:n]
	workers := eiWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := range eis {
			eis[i] = gp.ExpectedImprovement(means[i], stds[i], best)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					eis[i] = gp.ExpectedImprovement(means[i], stds[i], best)
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	// Deterministic argmax: a strict > scan keeps the lowest candidate
	// index among ties — the same winner as the old sequential loop,
	// byte-identical regardless of GOMAXPROCS.
	bestEI, bestIdx := math.Inf(-1), -1
	for i, ei := range eis {
		if ei > bestEI {
			bestEI, bestIdx = ei, i
		}
	}
	t.lastMaxEI, t.eiValid = bestEI, true
	t.lastAcqSec = time.Since(acqStart).Seconds()
	mAcqSeconds.Observe(t.lastAcqSec)
	if bestIdx < 0 {
		return t.Space.Random(rng)
	}
	if t.DecisionHook != nil {
		t.recordDecision(means, stds, eis, best, bestIdx)
	}
	return cands[bestIdx]
}

// lastAcqSeconds implements acqTimed.
func (t *BayesOpt) lastAcqSeconds() float64 { return t.lastAcqSec }

// ShouldStop implements Stopper: with StopEIFrac set, the search stops
// once the best expected improvement (in multiplicative runtime terms —
// the model works on log-runtime) drops below the fraction, CherryPick's
// "EI < 10%" rule.
func (t *BayesOpt) ShouldStop() bool { return t.eiConverged(len(t.xs) - t.transferred) }

// eiConverged applies the stop rule after own evaluations of the
// session's own. Transferred observations do not count towards the
// guard: they seed the posterior but are no evidence that this
// session's search has converged.
func (t *BayesOpt) eiConverged(own int) bool {
	if t.StopEIFrac <= 0 || !t.eiValid {
		return false
	}
	// Give the model a few EI-guided evaluations before trusting its
	// convergence estimate — a freshly initialized posterior can look
	// deceptively flat.
	if own < t.initSamples()+5 {
		return false
	}
	threshold := -math.Log(1 - t.StopEIFrac)
	return t.lastMaxEI < threshold
}

// Observe implements Tuner.
func (t *BayesOpt) Observe(tr Trial) { t.absorb(tr) }

func (t *BayesOpt) absorb(tr Trial) {
	t.xs = append(t.xs, t.Space.Encode(tr.Config))
	t.ys = append(t.ys, math.Log(math.Max(tr.Objective, 1e-6)))
	t.dirty = true
}

func (t *BayesOpt) refit() {
	if !t.dirty || len(t.xs) == 0 {
		return
	}
	if t.model == nil {
		m, err := surrogate.New(surrogate.Config{Kind: t.Surrogate, Seed: t.SurrogateSeed})
		if err != nil {
			// Unknown backend names are rejected by layered validation; a
			// tuner driven directly with one degrades to random proposals.
			t.dirty = false
			return
		}
		t.model = m
	}
	// The observation log is append-only, so backends with an incremental
	// path (the persistent grid GP, the RFF running Grams) absorb only the
	// new rows; everything else refits from scratch. Either way the model
	// keeps its previous posterior when fitting fails — a failed refit
	// degrades to stale predictions, never to no predictions.
	if ext, ok := t.model.(surrogate.Extender); !ok || !ext.Extend(t.xs, t.ys) {
		_ = t.model.Fit(t.xs, t.ys)
	}
	t.dirty = false
}

// ModelPredict exposes the current posterior (log-runtime mean and std)
// at cfg, for SLO estimation and diagnostics. It reports ok=false before
// the model exists.
func (t *BayesOpt) ModelPredict(cfg confspace.Config) (mean, std float64, ok bool) {
	t.refit()
	if t.model == nil || !t.model.Fitted() {
		return 0, 0, false
	}
	m, s := t.model.Predict(t.Space.Encode(cfg))
	return m, s, true
}

func minOf(xs []float64) (float64, int) {
	best, idx := math.Inf(1), -1
	for i, x := range xs {
		if x < best {
			best, idx = x, i
		}
	}
	return best, idx
}
