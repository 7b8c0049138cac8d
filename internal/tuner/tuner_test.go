package tuner

import (
	"context"
	"errors"
	"math"
	"testing"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/stat"
)

// benchSpace is a 6-parameter space with one categorical and one boolean.
func benchSpace(t testing.TB) *confspace.Space {
	t.Helper()
	s, err := confspace.NewSpace(
		confspace.FloatParam("a", 0, 1, 0.1),
		confspace.FloatParam("b", 0, 1, 0.9),
		confspace.IntParam("c", 1, 64, 4),
		confspace.LogIntParam("d", 8, 1024, 16),
		confspace.BoolParam("e", false),
		confspace.CatParam("f", 0, "x", "y", "z"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bowl is a smooth multi-modal objective with optimum near a=0.7, b=0.3,
// c=32, d=256, e=true, f=z. Minimum value ~10.
func bowl(s *confspace.Space) Objective {
	return func(cfg confspace.Config) Measurement {
		a, b := cfg.Float("a"), cfg.Float("b")
		c := float64(cfg.Int("c"))
		d := float64(cfg.Int("d"))
		v := 10.0
		v += 40 * (a - 0.7) * (a - 0.7)
		v += 40 * (b - 0.3) * (b - 0.3)
		v += 20 * math.Abs(math.Log2(c/32)) / 5
		v += 15 * math.Abs(math.Log2(d/256)) / 7
		if !cfg.Bool("e") {
			v += 5
		}
		if s.ChoiceValue(cfg, "f") != "z" {
			v += 3
		}
		return Measurement{Runtime: v, Cost: v * 0.01}
	}
}

func allTuners(s *confspace.Space) []Tuner {
	return []Tuner{
		NewRandomSearch(s),
		NewLatinSearch(s, 0),
		NewHillClimb(s),
		NewBayesOpt(s),
		NewGenetic(s),
		NewBestConfig(s),
		NewTreeSearch(s),
		NewQLearn(s),
	}
}

func TestAllTunersProposeValidConfigs(t *testing.T) {
	s := benchSpace(t)
	obj := bowl(s)
	for _, tn := range allTuners(s) {
		t.Run(tn.Name(), func(t *testing.T) {
			rng := stat.NewRNG(1)
			for i := 0; i < 40; i++ {
				cfg := tn.Next(rng)
				if err := s.Validate(cfg); err != nil {
					t.Fatalf("step %d: invalid config: %v", i, err)
				}
				m := obj(cfg)
				tn.Observe(Trial{Index: i, Config: cfg, Measurement: m, Objective: m.Runtime})
			}
		})
	}
}

func TestRunSessionMechanics(t *testing.T) {
	s := benchSpace(t)
	rng := stat.NewRNG(2)
	res, err := Run(NewRandomSearch(s), bowl(s), 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 30 || len(res.BestSoFar) != 30 {
		t.Fatalf("trials = %d, trajectory = %d", len(res.Trials), len(res.BestSoFar))
	}
	if !res.Found {
		t.Fatal("no successful run found")
	}
	// Trajectory is monotone non-increasing.
	for i := 1; i < len(res.BestSoFar); i++ {
		if res.BestSoFar[i] > res.BestSoFar[i-1] {
			t.Fatalf("trajectory increased at %d", i)
		}
	}
	if res.Best.Runtime != res.BestSoFar[len(res.BestSoFar)-1] {
		t.Error("Best does not match final trajectory value")
	}
	if res.TotalCost <= 0 {
		t.Error("TotalCost not accumulated")
	}
}

func TestRunContextCancellation(t *testing.T) {
	s := benchSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	obj := func(cfg confspace.Config) Measurement {
		evals++
		if evals == 5 {
			cancel()
		}
		return bowl(s)(cfg)
	}
	res, err := RunContext(ctx, NewRandomSearch(s), obj, 30, stat.NewRNG(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evals != 5 {
		t.Errorf("evaluations after cancel = %d, want 5", evals)
	}
	// The partial result reflects the completed trials.
	if len(res.Trials) != 5 || len(res.BestSoFar) != 5 {
		t.Errorf("partial result has %d trials, %d trajectory points", len(res.Trials), len(res.BestSoFar))
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	s := benchSpace(t)
	a, err := Run(NewRandomSearch(s), bowl(s), 20, stat.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), NewRandomSearch(s), bowl(s), 20, stat.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Runtime != b.Best.Runtime || len(a.Trials) != len(b.Trials) {
		t.Errorf("Run and RunContext diverged: %v vs %v", a.Best, b.Best)
	}
}

func TestRunRejectsZeroBudget(t *testing.T) {
	s := benchSpace(t)
	if _, err := Run(NewRandomSearch(s), bowl(s), 0, stat.NewRNG(1)); !errors.Is(err, ErrNoBudget) {
		t.Errorf("err = %v", err)
	}
}

func TestRunPenalizesFailures(t *testing.T) {
	s := benchSpace(t)
	// Configs with a > 0.5 crash.
	obj := func(cfg confspace.Config) Measurement {
		if cfg.Float("a") > 0.5 {
			return Measurement{Runtime: 30, Failed: true}
		}
		return Measurement{Runtime: 100 - 50*cfg.Float("a")}
	}
	rng := stat.NewRNG(3)
	res, err := Run(NewRandomSearch(s), obj, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trials {
		if tr.Failed && tr.Objective < 3600 {
			t.Fatalf("failed trial objective %v not penalized", tr.Objective)
		}
	}
	if res.Best.Failed {
		t.Error("best trial is a failed run")
	}
	if res.Best.Config.Float("a") > 0.5 {
		t.Error("best config is in the crash region")
	}
}

func TestRunAllFailures(t *testing.T) {
	s := benchSpace(t)
	obj := func(confspace.Config) Measurement { return Measurement{Runtime: 1, Failed: true} }
	res, err := Run(NewRandomSearch(s), obj, 10, stat.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("Found = true with all failures")
	}
	if !math.IsInf(res.BestSoFar[9], 1) {
		t.Error("trajectory should stay +Inf")
	}
}

func TestExecutionsToReach(t *testing.T) {
	r := Result{BestSoFar: []float64{math.Inf(1), 50, 30, 30, 10}}
	if got := r.ExecutionsToReach(35); got != 3 {
		t.Errorf("ExecutionsToReach(35) = %d, want 3", got)
	}
	if got := r.ExecutionsToReach(5); got != -1 {
		t.Errorf("ExecutionsToReach(5) = %d, want -1", got)
	}
}

// runTuner runs a tuner on the bowl and returns the best runtime found.
func runTuner(t *testing.T, tn Tuner, s *confspace.Space, budget int, seed int64) float64 {
	t.Helper()
	res, err := Run(tn, bowl(s), budget, stat.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("%s found nothing", tn.Name())
	}
	return res.Best.Runtime
}

func TestModelBasedTunersBeatRandomOnAverage(t *testing.T) {
	s := benchSpace(t)
	const budget = 60
	seeds := []int64{1, 2, 3, 4, 5}
	mean := func(f func(seed int64) float64) float64 {
		sum := 0.0
		for _, sd := range seeds {
			sum += f(sd)
		}
		return sum / float64(len(seeds))
	}
	randomMean := mean(func(sd int64) float64 { return runTuner(t, NewRandomSearch(s), s, budget, sd) })
	boMean := mean(func(sd int64) float64 { return runTuner(t, NewBayesOpt(s), s, budget, sd) })
	bcMean := mean(func(sd int64) float64 { return runTuner(t, NewBestConfig(s), s, budget, sd) })
	if boMean >= randomMean {
		t.Errorf("bayesopt mean %v not below random mean %v", boMean, randomMean)
	}
	if bcMean >= randomMean*1.05 {
		t.Errorf("bestconfig mean %v not competitive with random mean %v", bcMean, randomMean)
	}
}

func TestAllTunersImproveOverDefault(t *testing.T) {
	s := benchSpace(t)
	defVal := bowl(s)(s.Default()).Runtime
	for _, tn := range allTuners(s) {
		t.Run(tn.Name(), func(t *testing.T) {
			best := runTuner(t, tn, s, 80, 7)
			if best >= defVal {
				t.Errorf("%s best %v did not improve on default %v", tn.Name(), best, defVal)
			}
		})
	}
}

func TestBayesOptWarmStart(t *testing.T) {
	s := benchSpace(t)
	obj := bowl(s)
	// Build warm-start trials near the optimum.
	var warm []Trial
	rng := stat.NewRNG(8)
	for i := 0; i < 15; i++ {
		cfg := s.Default()
		cfg["a"] = 0.7 + 0.05*rng.NormFloat64()
		cfg["b"] = 0.3 + 0.05*rng.NormFloat64()
		cfg = s.Clamp(cfg)
		m := obj(cfg)
		warm = append(warm, Trial{Config: cfg, Measurement: m, Objective: m.Runtime})
	}
	seeds := []int64{11, 12, 13}
	meanBest := func(mk func() *BayesOpt) float64 {
		sum := 0.0
		for _, sd := range seeds {
			res, err := Run(mk(), obj, 12, stat.NewRNG(sd))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Best.Runtime
		}
		return sum / float64(len(seeds))
	}
	cold := meanBest(func() *BayesOpt { return NewBayesOpt(s) })
	warmed := meanBest(func() *BayesOpt {
		b := NewBayesOpt(s)
		b.WarmStart = warm
		b.InitSamples = 1 // warm observations replace most of the init design
		return b
	})
	if warmed >= cold {
		t.Errorf("warm-start mean %v not below cold-start mean %v", warmed, cold)
	}
}

func TestGeneticGenerations(t *testing.T) {
	s := benchSpace(t)
	g := NewGenetic(s)
	g.PopSize = 8
	if _, err := Run(g, bowl(s), 30, stat.NewRNG(9)); err != nil {
		t.Fatal(err)
	}
	if g.Generation() < 2 {
		t.Errorf("generations = %d, want >= 2 after 30 evals of pop 8", g.Generation())
	}
}

func TestHillClimbRestartsAfterPatience(t *testing.T) {
	s := benchSpace(t)
	hc := NewHillClimb(s)
	hc.Patience = 3
	rng := stat.NewRNG(10)
	// Feed constant observations: never improves after the first, so
	// restarts must kick in without panicking.
	for i := 0; i < 20; i++ {
		cfg := hc.Next(rng)
		if err := s.Validate(cfg); err != nil {
			t.Fatal(err)
		}
		hc.Observe(Trial{Index: i, Config: cfg, Objective: 100})
	}
}

func TestBayesOptModelPredict(t *testing.T) {
	s := benchSpace(t)
	b := NewBayesOpt(s)
	if _, _, ok := b.ModelPredict(s.Default()); ok {
		t.Error("ModelPredict ok before any data")
	}
	if _, err := Run(b, bowl(s), 20, stat.NewRNG(11)); err != nil {
		t.Fatal(err)
	}
	mean, std, ok := b.ModelPredict(s.Default())
	if !ok || math.IsNaN(mean) || std < 0 {
		t.Errorf("ModelPredict = (%v, %v, %v)", mean, std, ok)
	}
}

func TestErnestModel(t *testing.T) {
	// Ground truth: 10 + 80·s/m + 2·log(m) + 0.5·m; optimum machine count
	// balances parallelism against per-machine overhead.
	truth := func(m, s float64) float64 {
		return 10 + 80*s/m + 2*math.Log(m+1) + 0.5*m
	}
	var samples []ErnestSample
	for _, m := range []float64{1, 2, 4, 8} {
		for _, s := range []float64{0.125, 0.25, 0.5} {
			samples = append(samples, ErnestSample{Machines: m, Scale: s, Runtime: truth(m, s)})
		}
	}
	model, err := FitErnest(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolate to full scale.
	for _, m := range []float64{4, 8, 16} {
		pred := model.Predict(m, 1)
		want := truth(m, 1)
		if math.Abs(pred-want)/want > 0.25 {
			t.Errorf("Predict(%v, 1) = %v, want ~%v", m, pred, want)
		}
	}
	best, _ := model.BestMachines(1, 32)
	trueBest, trueT := 1, math.Inf(1)
	for n := 1; n <= 32; n++ {
		if v := truth(float64(n), 1); v < trueT {
			trueBest, trueT = n, v
		}
	}
	if best < trueBest/2 || best > trueBest*2 {
		t.Errorf("BestMachines = %d, truth = %d", best, trueBest)
	}
	for _, w := range model.Weights() {
		if w < 0 {
			t.Errorf("negative weight %v", w)
		}
	}
}

func TestErnestBudgetConstraint(t *testing.T) {
	samples := []ErnestSample{
		{1, 0.25, 100}, {2, 0.25, 60}, {4, 0.5, 70}, {8, 0.5, 50}, {8, 1, 80},
	}
	model, err := FitErnest(samples)
	if err != nil {
		t.Fatal(err)
	}
	n, rt, ok := model.BestMachinesUnderBudget(1, 16, 1.0, 1000)
	if !ok || n < 1 || rt <= 0 {
		t.Errorf("unconstrained-ish budget: (%d, %v, %v)", n, rt, ok)
	}
	// Impossible budget.
	if _, _, ok := model.BestMachinesUnderBudget(1, 16, 1000, 0.0001); ok {
		t.Error("impossible budget accepted")
	}
}

func TestErnestTooFewSamples(t *testing.T) {
	if _, err := FitErnest([]ErnestSample{{1, 1, 1}}); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("err = %v", err)
	}
}

func TestSessionDeterminism(t *testing.T) {
	s := benchSpace(t)
	for _, mk := range []func() Tuner{
		func() Tuner { return NewBayesOpt(s) },
		func() Tuner { return NewGenetic(s) },
		func() Tuner { return NewBestConfig(s) },
	} {
		a, err := Run(mk(), bowl(s), 25, stat.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mk(), bowl(s), 25, stat.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		if a.Best.Runtime != b.Best.Runtime {
			t.Errorf("%s not deterministic: %v vs %v", mk().Name(), a.Best.Runtime, b.Best.Runtime)
		}
	}
}

func TestBayesOptEIStopping(t *testing.T) {
	s := benchSpace(t)
	bo := NewBayesOpt(s)
	bo.StopEIFrac = 0.10
	res, err := Run(bo, bowl(s), 200, stat.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("EI stopping never triggered in 200 runs")
	}
	if len(res.Trials) >= 200 {
		t.Errorf("stopped flag set but full budget used (%d trials)", len(res.Trials))
	}
	if len(res.Trials) < 5 {
		t.Errorf("stopped suspiciously early: %d trials", len(res.Trials))
	}
	// The found value should be decent — well below the ~47 default —
	// even if the convergence estimate was optimistic.
	if res.Best.Runtime > 25 {
		t.Errorf("early-stopped best %v too far from optimum ~10", res.Best.Runtime)
	}
}

// The stop rule's guard counts the session's own evaluations only: a
// session warm-started from 20 transferred trials must still make
// initSamples()+5 evaluations of its own before it may stop, plain and
// pruning alike.
func TestEIStoppingGuardIgnoresWarmStart(t *testing.T) {
	s := benchSpace(t)
	prior, err := Run(NewBayesOpt(s), bowl(s), 20, stat.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	warm := func() []Trial { return append([]Trial(nil), prior.Trials...) }
	bo := NewBayesOpt(s)
	bo.WarmStart, bo.InitSamples, bo.StopEIFrac = warm(), 3, 0.1
	pb := NewPrunedBayesOpt(s)
	pb.WarmStart, pb.InitSamples, pb.StopEIFrac = warm(), 3, 0.1
	for _, tn := range []Tuner{bo, pb} {
		res, err := Run(tn, bowl(s), 100, stat.NewRNG(24))
		if err != nil {
			t.Fatal(err)
		}
		if min := bo.initSamples() + 5; len(res.Trials) < min {
			t.Errorf("%s stopped after %d own trials, want at least %d", tn.Name(), len(res.Trials), min)
		}
		if !res.Stopped {
			t.Errorf("%s never stopped in 100 trials", tn.Name())
		}
	}
}

func TestStoppingDisabledByDefault(t *testing.T) {
	s := benchSpace(t)
	res, err := Run(NewBayesOpt(s), bowl(s), 30, stat.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped || len(res.Trials) != 30 {
		t.Errorf("default BayesOpt stopped early: %d trials, stopped=%v", len(res.Trials), res.Stopped)
	}
}

func TestRunForCostObjective(t *testing.T) {
	s := benchSpace(t)
	// Cost anti-correlates with runtime here: the cheapest region is NOT
	// the fastest, so the two objectives must pick different configs.
	obj := func(cfg confspace.Config) Measurement {
		rt := bowl(s)(cfg).Runtime
		return Measurement{Runtime: rt, Cost: 100 / rt}
	}
	fast, err := RunFor(NewBayesOpt(s), obj, 40, stat.NewRNG(31), MinimizeRuntime)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := RunFor(NewBayesOpt(s), obj, 40, stat.NewRNG(31), MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Found || !cheap.Found {
		t.Fatal("sessions found nothing")
	}
	if cheap.Best.Cost >= fast.Best.Cost {
		t.Errorf("cost-objective best $%.2f not below runtime-objective $%.2f",
			cheap.Best.Cost, fast.Best.Cost)
	}
	if fast.Best.Runtime >= cheap.Best.Runtime {
		t.Errorf("runtime-objective best %.1fs not below cost-objective %.1fs",
			fast.Best.Runtime, cheap.Best.Runtime)
	}
}

func TestMinimizeCostDelay(t *testing.T) {
	score := MinimizeCostDelay(36) // a dollar per 100 seconds of waiting
	m := Measurement{Runtime: 100, Cost: 2}
	if got := score(m); math.Abs(got-3) > 1e-12 {
		t.Errorf("blend = %v, want 3", got)
	}
}

func TestRunForNilScorerDefaults(t *testing.T) {
	s := benchSpace(t)
	res, err := RunFor(NewRandomSearch(s), bowl(s), 10, stat.NewRNG(32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Objective != res.Best.Runtime {
		t.Error("nil scorer did not default to runtime")
	}
}
