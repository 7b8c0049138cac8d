package tuner

import (
	"fmt"
	"math/rand"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/sensitivity"
)

// PrunedBayesOpt is significance-aware Bayesian optimization: a BayesOpt
// tuner that runs inside a pruned view of the configuration space. A
// sensitivity.Analyzer watches every observation (warm-start history
// included), and once the knob importances converge the search collapses
// onto a confspace.Subspace over the significant knobs — pinning the rest
// to the best-known configuration — so the surrogate fits and the
// acquisition argmax run at the reduced dimension. If a pruned knob's
// importance later resurges, the subspace re-expands mid-session and the
// inner tuner is rebuilt by replaying every full-space observation into
// the new view.
//
// The wrapper leaves BayesOpt itself untouched: sessions that do not opt
// into pruning construct a plain BayesOpt and keep bit-identical
// trajectories.
type PrunedBayesOpt struct {
	Space *confspace.Space
	// InitSamples, Candidates, WarmStart, StopEIFrac, Surrogate and
	// SurrogateSeed mirror the BayesOpt fields and are handed to every
	// inner tuner the wrapper builds.
	InitSamples   int
	Candidates    int
	WarmStart     []Trial
	StopEIFrac    float64
	Surrogate     string
	SurrogateSeed int64
	// Prune configures the sensitivity analyzer (zero value = defaults).
	Prune sensitivity.Config
	// Hook, when set, observes every analysis round with the trial count
	// at which it ran. Telemetry layers use it to publish pruning events;
	// it runs synchronously on the session goroutine.
	Hook func(trial int, dec sensitivity.Decision)

	// decisionHook is installed on every inner tuner (SetDecisionHook),
	// surviving the rebuilds a subspace change triggers.
	decisionHook DecisionHook

	inner    *BayesOpt
	analyzer *sensitivity.Analyzer
	sub      *confspace.Subspace // nil while the full space is active
	seen     []Trial             // full-space observations, replayed on rebuild
	best     Trial
	hasBest  bool
	trials   int
}

var _ Tuner = (*PrunedBayesOpt)(nil)
var _ Stopper = (*PrunedBayesOpt)(nil)

// NewPrunedBayesOpt returns a pruning Bayesian-optimization tuner over
// space.
func NewPrunedBayesOpt(space *confspace.Space) *PrunedBayesOpt {
	return &PrunedBayesOpt{Space: space}
}

// Name implements Tuner.
func (*PrunedBayesOpt) Name() string { return "bayesopt+prune" }

// ensure lazily builds the analyzer and the first (full-space) inner
// tuner, absorbing any warm-start history into both.
func (t *PrunedBayesOpt) ensure() {
	if t.analyzer == nil {
		t.analyzer = sensitivity.New(t.Space, t.Prune)
	}
	if t.inner == nil {
		t.inner = t.newInner(t.Space)
	}
	if len(t.WarmStart) > 0 {
		ws := t.WarmStart
		t.WarmStart = nil
		for _, tr := range ws {
			t.absorb(tr)
		}
		// Warm-start history may already be enough to prune before the
		// first proposal.
		t.maybeReplan()
	}
}

// newInner builds a BayesOpt over space (the full space or the current
// projection) with the wrapper's knobs.
func (t *PrunedBayesOpt) newInner(space *confspace.Space) *BayesOpt {
	return &BayesOpt{
		Space:         space,
		InitSamples:   t.InitSamples,
		Candidates:    t.Candidates,
		StopEIFrac:    t.StopEIFrac,
		Surrogate:     t.Surrogate,
		SurrogateSeed: t.SurrogateSeed,
		DecisionHook:  t.decisionHook,
	}
}

// Next implements Tuner: the inner tuner proposes in its (possibly
// projected) space, and proposals lift back to full configurations.
func (t *PrunedBayesOpt) Next(rng *rand.Rand) confspace.Config {
	t.ensure()
	cfg := t.inner.Next(rng)
	if t.sub != nil {
		return t.sub.Lift(cfg)
	}
	return cfg
}

// Observe implements Tuner.
func (t *PrunedBayesOpt) Observe(tr Trial) {
	t.ensure()
	t.absorb(tr)
	t.trials++
	t.maybeReplan()
}

// absorb records a full-space observation everywhere it matters: the
// replay log, the analyzer, the best-known tracker, and (projected) the
// inner tuner.
func (t *PrunedBayesOpt) absorb(tr Trial) {
	t.seen = append(t.seen, tr)
	t.analyzer.Observe(tr.Config, tr.Objective)
	if !tr.Failed && (!t.hasBest || tr.Objective < t.best.Objective) {
		t.best, t.hasBest = tr, true
	}
	t.inner.Observe(t.project(tr))
}

// project restricts a trial to the active view for the inner tuner.
func (t *PrunedBayesOpt) project(tr Trial) Trial {
	if t.sub == nil {
		return tr
	}
	out := tr
	out.Config = t.sub.Project(tr.Config)
	return out
}

// maybeReplan runs the sensitivity analysis when due and rebuilds the
// inner tuner on any adopted active-set change.
func (t *PrunedBayesOpt) maybeReplan() {
	if !t.analyzer.Due() {
		return
	}
	dec := t.analyzer.Evaluate()
	if dec.Changed {
		t.rebuild(dec)
	}
	if t.Hook != nil {
		t.Hook(t.trials, dec)
	}
}

// rebuild installs the analyzer's active set: pruned knobs pin to the
// best-known successful configuration (defaults before any success), a
// fresh inner tuner spans the projected space, and the full observation
// log replays into it so no information is lost across the switch.
func (t *PrunedBayesOpt) rebuild(dec sensitivity.Decision) {
	var pins confspace.Config
	if t.hasBest {
		pins = t.best.Config
	}
	sub, err := confspace.NewSubspace(t.Space, dec.Active, pins)
	if err != nil {
		// Active sets come from the analyzer over the same space, so this
		// is unreachable; degrade to the current view rather than panic.
		return
	}
	t.sub = sub
	t.inner = t.newInner(sub.Space())
	for _, tr := range t.seen {
		t.inner.Observe(t.project(tr))
	}
}

// ShouldStop implements Stopper by delegating to the inner tuner's
// CherryPick convergence rule, guarded by the wrapper's own trial count:
// the inner tuner sees warm-start history as ordinary observations.
func (t *PrunedBayesOpt) ShouldStop() bool {
	return t.inner != nil && t.inner.eiConverged(t.trials)
}

// lastAcqSeconds implements acqTimed.
func (t *PrunedBayesOpt) lastAcqSeconds() float64 {
	if t.inner == nil {
		return 0
	}
	return t.inner.lastAcqSeconds()
}

// ModelPredict exposes the inner posterior at a full-space configuration
// (projected into the active view first), for SLO estimation.
func (t *PrunedBayesOpt) ModelPredict(cfg confspace.Config) (mean, std float64, ok bool) {
	if t.inner == nil {
		return 0, 0, false
	}
	if t.sub != nil {
		cfg = t.sub.Project(cfg)
	}
	return t.inner.ModelPredict(cfg)
}

// ActiveDims returns the current search dimension and the full dimension.
func (t *PrunedBayesOpt) ActiveDims() (active, total int) {
	if t.sub != nil {
		return t.sub.Dim(), t.Space.Dim()
	}
	return t.Space.Dim(), t.Space.Dim()
}

// Subspace returns the current projection (nil while the full space is
// active).
func (t *PrunedBayesOpt) Subspace() *confspace.Subspace { return t.sub }

// LastDecision returns the analyzer's most recent outcome.
func (t *PrunedBayesOpt) LastDecision() (sensitivity.Decision, bool) {
	if t.analyzer == nil {
		return sensitivity.Decision{}, false
	}
	return t.analyzer.LastDecision()
}

// Describe renders the current search view for logs.
func (t *PrunedBayesOpt) Describe() string {
	a, total := t.ActiveDims()
	return fmt.Sprintf("%d/%d dims active", a, total)
}
