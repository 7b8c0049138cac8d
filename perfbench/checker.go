package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"seamlesstune/internal/confspace"
)

// tuneResult is the result payload of a done job, as GET /v1/jobs/{id}
// returns it.
type tuneResult struct {
	Cluster         string           `json:"cluster"`
	Config          confspace.Config `json:"config"`
	DefaultRuntimeS float64          `json:"defaultRuntimeS"`
	TunedRuntimeS   float64          `json:"tunedRuntimeS"`
	ImprovementPct  float64          `json:"improvementPct"`
	TuningCostUSD   float64          `json:"tuningCostUSD"`
	WarmStarted     bool             `json:"warmStarted"`
}

// sparkSpace is the space tuneserve searches with its default -params 12.
var sparkSpace = confspace.SparkSubspace(12)

// checkResult applies the output checks every done job must pass: the
// config lies inside the space, both runtimes are positive, and the
// reported improvement is the one its runtimes imply.
func checkResult(r tuneResult) error {
	if r.Cluster == "" {
		return fmt.Errorf("no cluster")
	}
	if err := sparkSpace.Validate(r.Config); err != nil {
		return fmt.Errorf("config outside the space: %w", err)
	}
	if !(r.TunedRuntimeS > 0) || !(r.DefaultRuntimeS > 0) {
		return fmt.Errorf("non-positive runtime (tuned %v, default %v)", r.TunedRuntimeS, r.DefaultRuntimeS)
	}
	want := math.Max(0, (r.DefaultRuntimeS-r.TunedRuntimeS)/r.DefaultRuntimeS) * 100
	if math.Abs(r.ImprovementPct-want) > 1e-9*math.Max(1, want) {
		return fmt.Errorf("improvementPct %v, runtimes imply %v", r.ImprovementPct, want)
	}
	if r.TuningCostUSD < 0 || math.IsNaN(r.TuningCostUSD) {
		return fmt.Errorf("tuning cost %v", r.TuningCostUSD)
	}
	return nil
}

// golden is the canary's result on a fresh server with the default seed,
// which the determinism contract fixes bit for bit.
//
//go:embed golden.json
var goldenJSON []byte

// matchGolden compares the canary's cluster, config and runtimes with the
// golden bit for bit.
func matchGolden(r tuneResult) error {
	var g tuneResult
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	got, _ := json.Marshal(r)
	if r.Cluster != g.Cluster {
		return fmt.Errorf("canary cluster %q, golden %q (canary: %s)", r.Cluster, g.Cluster, got)
	}
	if math.Float64bits(r.TunedRuntimeS) != math.Float64bits(g.TunedRuntimeS) ||
		math.Float64bits(r.DefaultRuntimeS) != math.Float64bits(g.DefaultRuntimeS) {
		return fmt.Errorf("canary runtimes %v/%v, golden %v/%v (canary: %s)",
			r.TunedRuntimeS, r.DefaultRuntimeS, g.TunedRuntimeS, g.DefaultRuntimeS, got)
	}
	if len(r.Config) != len(g.Config) {
		return fmt.Errorf("canary config has %d knobs, golden %d (canary: %s)", len(r.Config), len(g.Config), got)
	}
	names := make([]string, 0, len(g.Config))
	for k := range g.Config {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v, ok := r.Config[k]
		if !ok || math.Float64bits(v) != math.Float64bits(g.Config[k]) {
			return fmt.Errorf("canary knob %s = %v, golden %v (canary: %s)", k, v, g.Config[k], got)
		}
	}
	return nil
}
