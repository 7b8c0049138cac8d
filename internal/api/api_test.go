package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

var (
	goldenResult = TuneResponse{
		Cluster:         "4x nimbus/h1.4xlarge",
		Config:          confspace.Config{"spark.executor.cores": 4, "spark.executor.memory": 8192},
		DefaultRuntimeS: 120.5,
		TunedRuntimeS:   80.25,
		ImprovementPct:  33.4,
		TuningCostUSD:   1.75,
		WarmStarted:     true,
		WarmSource:      "acme/sort@8GB",
		Surrogate:       "rffgp",
		Pruning:         true,
		ActiveDims:      5,
		TotalDims:       12,
		PrunedKnobs:     []string{"spark.shuffle.compress"},
	}
	goldenStart  = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	goldenFinish = goldenStart.Add(90 * time.Second)
)

// goldens holds one fully populated value per wire type. Nested api
// types (Objective, PhaseExplain, CalibrationExplain, StallExplain,
// Error) are populated inside their parents.
var goldens = []struct {
	name string
	v    any
}{
	{"tune_request", TuneRequest{
		Tenant: "acme", Workload: "sort", InputGB: 8,
		Objective: &Objective{WithinPctOfOptimal: 10, DeadlineS: 600, BudgetUSDPerRun: 2.5, TuningBudgetUSD: 40},
		Surrogate: "forest", Pruning: true,
	}},
	{"tune_response", goldenResult},
	{"job", jobs.Job{
		ID: "job-000001", Tenant: "acme", State: jobs.StateDone,
		SubmittedAt: goldenStart, StartedAt: &goldenStart, FinishedAt: &goldenFinish,
		Result: goldenResult, Error: "none", StartSeq: 1, FinishSeq: 2,
		Surrogate: "rffgp", Pruning: true, Diagnostics: true,
	}},
	{"explain_response", ExplainResponse{
		Job: "job-000001", State: "done", Diagnostics: true, Surrogate: "gp", Events: 42,
		Phases: []PhaseExplain{{
			Phase: "cloud", Trials: 10, Failed: 1, BestSoFar: 98.2, Plateau: 2,
			Decisions: 6, LastEI: 0.004, PeakEI: 0.08, EIDecay: 0.05, ExploitShare: 0.9,
			Calibration: &CalibrationExplain{Scores: 8, Coverage1: 0.625, Coverage2: 0.875,
				RMSE: 0.21, NLPD: -0.1, Severity: "ok", Detail: "calibration within tolerance"},
			Stall: &StallExplain{Plateau: 9, EIDecay: 0.05, Severity: "warn", Detail: "9 trials without improvement"},
		}},
	}},
	{"query_response", QueryResponse{
		Metric: "jobs_queue_depth", FromNS: 1e18, ToNS: 1e18 + 60e9, StepS: 5,
		Series: []telemetry.SeriesResult{{
			Metric: "jobs_queue_depth", Labels: map[string]string{"tenant": "acme"},
			Points: []telemetry.Point{{T: 1e18, Avg: 1.5, Min: 1, Max: 2, Last: 2, Count: 4}},
		}},
	}},
	{"alerts_response", AlertsResponse{
		Firing: 1,
		Alerts: []telemetry.AlertStatus{{
			Name: "fsync-p99-high", Severity: "warn", Kind: "threshold", State: telemetry.StateFiring,
			SinceNS: 1e18, Value: 0.12, Detail: "wal_fsync_seconds:p99 > 0.05 over 1m0s",
		}},
	}},
	{"health_response", HealthResponse{
		Status: "degraded", UptimeS: 12.5, GoVersion: "go1.22", Revision: "abc123",
		Engine:          jobs.Stats{Workers: 4, Queued: 1, Running: 2, Jobs: 7},
		Events:          obs.EventStats{Published: 100, Dropped: 1, Subscribers: 2, Capacity: 4096},
		Storage:         storage.Stats{Backend: "wal", Dir: "/var/lib/tuneserve", Records: 10},
		Telemetry:       telemetry.Stats{Series: 40, Samples: 12, IntervalS: 1},
		AlertsFiring:    1,
		PersistFailures: 2,
		PersistError:    "disk full",
	}},
	{"error_envelope", ErrorEnvelope{Error: Error{Code: "not_found", Message: `no job "job-999999"`}}},
}

// TestWireGolden pins the JSON encoding of every wire type: a renamed
// field, a changed tag or a dropped omitempty shows up as a golden diff.
// Regenerate with go test ./internal/api -run TestWireGolden -update.
func TestWireGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			populated(t, g.name, reflect.ValueOf(g.v))
			got, err := json.MarshalIndent(g.v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", g.name+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s changed:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}

// populated fails on any zero-valued field of an api struct or of
// jobs.Job, so the golden files exercise every field and its omitempty.
// Fields of other packages' types need only be non-zero as a whole.
func populated(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	if v.IsZero() {
		t.Errorf("%s is zero; populate it so the golden file pins it", path)
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		populated(t, path, v.Elem())
	case reflect.Slice:
		populated(t, path+"[0]", v.Index(0))
	case reflect.Struct:
		typ := v.Type()
		if typ.PkgPath() != reflect.TypeOf(Error{}).PkgPath() && typ != reflect.TypeOf(jobs.Job{}) {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Tag.Get("json") != "-" {
				populated(t, path+"."+typ.Field(i).Name, v.Field(i))
			}
		}
	}
}

// TestWireNamesClientsRead checks the goldens carry, unchanged, the
// field names that clients outside this package read by hand: the
// benchmark's job and result views and the dashboard's ops strip.
func TestWireNamesClientsRead(t *testing.T) {
	for name, paths := range map[string][][]string{
		"job": {
			{"id"}, {"state"}, {"submittedAt"}, {"startedAt"}, {"finishedAt"}, {"error"},
			{"result", "cluster"}, {"result", "config"}, {"result", "defaultRuntimeS"},
			{"result", "tunedRuntimeS"}, {"result", "improvementPct"},
			{"result", "tuningCostUSD"}, {"result", "warmStarted"},
		},
		"query_response":  {{"series", "points", "avg"}},
		"alerts_response": {{"firing"}, {"alerts", "state"}, {"alerts", "name"}, {"alerts", "severity"}},
		"error_envelope":  {{"error", "code"}, {"error", "message"}},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if !hasPath(doc, p) {
				t.Errorf("%s.json lacks %v", name, p)
			}
		}
	}
}

// hasPath follows object keys, stepping into the first element of any
// array on the way.
func hasPath(doc any, path []string) bool {
	for _, key := range path {
		if arr, ok := doc.([]any); ok && len(arr) > 0 {
			doc = arr[0]
		}
		obj, ok := doc.(map[string]any)
		if !ok {
			return false
		}
		if doc, ok = obj[key]; !ok {
			return false
		}
	}
	return true
}
