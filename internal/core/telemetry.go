package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"seamlesstune/internal/cloud"
	"seamlesstune/internal/diagnose"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/sensitivity"
	"seamlesstune/internal/slo"
	"seamlesstune/internal/spark"
	"seamlesstune/internal/tuner"
)

// sessionTelemetry turns one tuning session's raw progress into the
// structured event stream of internal/obs: per-trial events carrying
// objective/best-so-far/regret, dollar accounting for every budgeted
// execution (trials, probes, the baseline), and live SLO evaluation
// with deduplicated slo_violation events. It is created per session from
// the context's emitter; a nil *sessionTelemetry is a valid no-op, so
// untelemetered sessions (no emitter on the context) pay nothing but a
// nil check.
type sessionTelemetry struct {
	em          obs.Emitter
	lo          slo.LiveObjective
	totalExecs  int
	diagnostics bool

	mu          sync.Mutex
	execs       int     // spend-bearing executions (trials + probes + baseline)
	trials      int     // session-wide trial counter (1-based in events)
	spend       float64 // cumulative tuning spend, Σ Result.CostUSD
	best        float64 // best successful penalized objective
	bestRuntime float64
	bestCost    float64
	hasBest     bool
	lastCluster string // cluster of the most recent execution
	hasExec     bool   // an execution landed since the last trial event
	lastViolate string // last emitted violation text, for dedupe
	activeDims  int    // pruned search dimension (0 = full space / no pruning)
	totalDims   int
	// diags holds one diagnose.Monitor per phase with diagnostics
	// attached ("cloud", "disc"); trial hooks score the phase's monitor
	// and relay its model_health/stall verdicts onto the stream.
	diags map[string]*diagnose.Monitor
}

// newSessionTelemetry binds an emitter to a session. totalExecs is the
// session's full execution budget — the denominator of spend projection.
// diagnostics opts the session into tuner explainability (decide /
// model_health / stall events; see attachDiagnostics). Returns nil (the
// no-op) when the emitter is disabled.
func newSessionTelemetry(em obs.Emitter, reg Registration, totalExecs int, diagnostics bool) *sessionTelemetry {
	if !em.Enabled() {
		return nil
	}
	return &sessionTelemetry{
		em:          em,
		lo:          slo.LiveObjective{Objective: reg.Objective, TuningBudgetUSD: reg.TuningBudgetUSD},
		totalExecs:  totalExecs,
		diagnostics: diagnostics,
		best:        math.Inf(1),
	}
}

// attachDiagnostics installs the tuner introspection layer on one
// stage's tuner: every EI-guided proposal becomes a decide event, and a
// diagnose.Monitor scores the surrogate's predictions as trials land,
// emitting model_health and stall events from the trial hook. The hook
// only reads the record the tuner already assembled and never touches
// the session RNG, so trajectories are bit-identical with diagnostics
// on or off. No-op for the nil telemetry, for sessions with diagnostics
// disabled, and for tuners that cannot explain themselves.
func (st *sessionTelemetry) attachDiagnostics(tn tuner.Tuner, phase string) {
	if st == nil || !st.diagnostics {
		return
	}
	dr, ok := tn.(tuner.DecisionRecorder)
	if !ok {
		return
	}
	mon := diagnose.New(diagnose.Config{})
	st.mu.Lock()
	if st.diags == nil {
		st.diags = make(map[string]*diagnose.Monitor)
	}
	st.diags[phase] = mon
	st.mu.Unlock()
	dr.SetDecisionHook(func(rec tuner.DecisionRecord) {
		mon.OnDecision(rec.Chosen.Mean, rec.Chosen.Std, rec.Chosen.EI)
		st.mu.Lock()
		trial := st.trials + 1 // the proposal being decided is the next trial
		st.mu.Unlock()
		st.em.Emit(obs.Event{
			Type: obs.EventDecide, Phase: phase, Trial: trial,
			Surrogate:  rec.Surrogate,
			Candidates: rec.Candidates,
			Rank:       rec.Chosen.Rank,
			PredMean:   rec.Chosen.Mean,
			PredStd:    rec.Chosen.Std,
			EI:         rec.Chosen.EI,
			EIExploit:  rec.Chosen.Exploit,
			EIExplore:  rec.Chosen.Explore,
			TopK:       rec.TopKString(),
		})
	})
}

func (st *sessionTelemetry) sessionStart() {
	if st == nil {
		return
	}
	st.em.Emit(obs.Event{Type: obs.EventSessionStart, BudgetTrials: st.totalExecs})
}

func (st *sessionTelemetry) sessionEnd(detail string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	ev := obs.Event{Type: obs.EventSessionEnd, Detail: detail, SpendUSD: st.spend}
	if st.hasBest {
		ev.BestSoFar = st.best
		ev.Attainment = st.lo.Attainment(st.bestRuntime, st.bestCost, 0)
	}
	st.mu.Unlock()
	st.em.Emit(ev)
}

// recordExecution accounts one budgeted run. Probe and baseline runs get
// their own execution event; trial runs ("cloud"/"disc" phases) are
// accounted here but reported by the trial hook, which fires right after
// with the tuner's view of the same run.
func (st *sessionTelemetry) recordExecution(phase string, cluster cloud.ClusterSpec, res spark.Result) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.execs++
	st.spend += res.CostUSD
	st.lastCluster = cluster.String()
	st.hasExec = true
	var events []obs.Event
	if phase != "cloud" && phase != "disc" {
		events = append(events, obs.Event{
			Type: obs.EventExecution, Phase: phase,
			Cluster: st.lastCluster, RuntimeS: res.RuntimeS, Failed: res.Failed,
			CostUSD: res.CostUSD, SpendUSD: st.spend,
		})
	}
	if vio := st.checkSLOLocked(); vio != nil {
		events = append(events, *vio)
	}
	st.mu.Unlock()
	for _, ev := range events {
		st.em.Emit(ev)
	}
}

// trialHook returns the tuner.TrialHook that reports one stage's trials,
// or nil for the no-op telemetry.
func (st *sessionTelemetry) trialHook(phase string) tuner.TrialHook {
	if st == nil {
		return nil
	}
	return func(tr tuner.Trial, _ float64) {
		st.mu.Lock()
		mon := st.diags[phase]
		st.trials++
		cluster := ""
		if st.hasExec {
			// The execution recorded since the last trial is this trial's
			// run; a trial with no execution behind it (e.g. an unmappable
			// cloud candidate) has no cluster and no cost.
			cluster = st.lastCluster
			st.hasExec = false
		}
		if !tr.Failed && (!st.hasBest || tr.Objective < st.best) {
			st.best = tr.Objective
			st.bestRuntime = tr.Runtime
			st.bestCost = tr.Cost
			st.hasBest = true
		}
		ev := obs.Event{
			Type: obs.EventTrial, Phase: phase, Trial: st.trials,
			Cluster: cluster, RuntimeS: tr.Runtime, Failed: tr.Failed,
			Objective: tr.Objective, CostUSD: tr.Cost, SpendUSD: st.spend,
		}
		if st.hasBest {
			ev.BestSoFar = st.best
			ev.RegretS = tr.Objective - st.best
			ev.Attainment = st.lo.Attainment(st.bestRuntime, st.bestCost, 0)
			slo.RecordAttainment(ev.Attainment)
		}
		p := st.progressLocked()
		ev.BurnRate = p.BurnRate()
		ev.ProjectedSpendUSD = p.ProjectedSpend(st.totalExecs)
		if st.activeDims > 0 {
			ev.ActiveDims = st.activeDims
			ev.TotalDims = st.totalDims
		}
		vio := st.checkSLOLocked()
		trialNo := st.trials
		st.mu.Unlock()
		st.em.Emit(ev)
		if vio != nil {
			st.em.Emit(*vio)
		}
		if mon == nil {
			return
		}
		// Score the surrogate's pending prediction against this outcome
		// (in the model-target space the posterior works in) and relay
		// any due diagnostics verdicts.
		health, stall := mon.OnTrial(tuner.ModelTarget(tr.Objective), tr.Failed)
		if health != nil {
			st.em.Emit(obs.Event{
				Type: obs.EventModelHealth, Phase: phase, Trial: trialNo,
				Scores:    health.Scores,
				Coverage1: health.Coverage1,
				Coverage2: health.Coverage2,
				RMSE:      health.RMSE,
				NLPD:      health.NLPD,
				Severity:  string(health.Severity),
				Detail:    health.Reason,
			})
		}
		if stall != nil {
			st.em.Emit(obs.Event{
				Type: obs.EventStall, Phase: phase, Trial: trialNo,
				Plateau:  stall.Plateau,
				EI:       stall.EIMax,
				EIPeak:   stall.EIPeak,
				EIDecay:  stall.EIDecay,
				Severity: string(stall.Severity),
				Detail:   stall.Reason,
			})
		}
	}
}

// pruneHook returns the sensitivity-analysis observer for a pruning
// session: every analysis round becomes a prune event carrying the
// active dimension, the dropped knobs, and the leading importances, and
// subsequent trial events are stamped with the active dimension. names
// is the full space's knob order (matching Decision.Importance). Returns
// nil for the no-op telemetry.
func (st *sessionTelemetry) pruneHook(phase string, names []string) func(int, sensitivity.Decision) {
	if st == nil {
		return nil
	}
	return func(trial int, dec sensitivity.Decision) {
		active := len(names)
		if dec.Active != nil {
			active = len(dec.Active)
		}
		st.mu.Lock()
		st.activeDims = active
		st.totalDims = len(names)
		st.mu.Unlock()
		st.em.Emit(obs.Event{
			Type: obs.EventPrune, Phase: phase, Trial: trial,
			ActiveDims: active, TotalDims: len(names),
			Dropped:    strings.Join(dec.Dropped, ","),
			Importance: topImportances(names, dec.Importance, 8),
			Detail:     dec.Reason,
		})
	}
}

// topImportances renders the k largest knob importances as "name=share"
// pairs, comma-separated, largest first (declaration order breaks ties).
func topImportances(names []string, imp []float64, k int) string {
	type kv struct {
		name string
		v    float64
	}
	ranked := make([]kv, 0, len(imp))
	for i, v := range imp {
		if i < len(names) && v > 0 {
			ranked = append(ranked, kv{names[i], v})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].v > ranked[j].v })
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	var b strings.Builder
	for i, r := range ranked {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%.3f", r.name, r.v)
	}
	return b.String()
}

func (st *sessionTelemetry) progressLocked() slo.Progress {
	return slo.Progress{
		Trials:       st.execs,
		SpendUSD:     st.spend,
		BestRuntimeS: st.bestRuntime,
		BestCostUSD:  st.bestCost,
		HasIncumbent: st.hasBest,
	}
}

// checkSLOLocked evaluates the live contract and returns an
// slo_violation event when the violation set changed since the last one
// emitted (repeating the same breach every trial would drown the
// stream).
func (st *sessionTelemetry) checkSLOLocked() *obs.Event {
	p := st.progressLocked()
	v := st.lo.LiveViolations(p, st.totalExecs)
	// Every evaluation feeds the burn-rate counters — before the event
	// dedupe, so the alert engine sees the true violation ratio, not the
	// rate of *changes* to the violation set.
	slo.RecordCheck(len(v) > 0)
	if len(v) == 0 {
		return nil
	}
	detail := strings.Join(v, "; ")
	if detail == st.lastViolate {
		return nil
	}
	st.lastViolate = detail
	ev := obs.Event{
		Type: obs.EventSLOViolation, Detail: detail,
		SpendUSD: p.SpendUSD, BurnRate: p.BurnRate(),
		ProjectedSpendUSD: p.ProjectedSpend(st.totalExecs),
	}
	if st.hasBest {
		ev.Attainment = st.lo.Attainment(st.bestRuntime, st.bestCost, 0)
	}
	return &ev
}
