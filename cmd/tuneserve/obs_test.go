package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seamlesstune/internal/api"
)

// TestMetricsEndpoint drives one tuning pipeline through the API and
// checks that /metrics exposes populated families from every layer of the
// stack: HTTP, job engine, service, tuner, GP substrate, and simulator.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	body := `{"tenant":"acme","workload":"wordcount","inputGB":8}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/tune status = %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := rec.Body.String()
	families := []string{
		// HTTP layer
		"http_requests_total", "http_request_seconds", "http_inflight_requests",
		// job engine
		"jobs_submitted_total", "jobs_finished_total", "jobs_workers",
		"jobs_wait_seconds", "jobs_run_seconds",
		// service pipeline
		"core_executions_total", "core_pipeline_seconds", "core_phase_seconds",
		// tuner + GP substrate
		"tuner_sessions_total", "tuner_trials_total", "tuner_acq_seconds",
		"gp_fit_seconds", "gp_predict_seconds",
		// simulator
		"spark_runs_total", "spark_stages_total", "spark_tasks_total",
	}
	for _, f := range families {
		if !strings.Contains(text, "# TYPE "+f+" ") {
			t.Errorf("/metrics missing family %s", f)
		}
	}
	if !strings.Contains(text, `http_requests_total{route="POST /v1/tune",status="200"}`) {
		t.Errorf("per-route counter missing or wrong:\n%s", grepLines(text, "http_requests_total"))
	}

	// The JSON mirror must be machine-decodable and carry the same names.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics?format=json status = %d", rec.Code)
	}
	var payload struct {
		Families []struct {
			Name string `json:"name"`
		} `json:"families"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("JSON metrics do not decode: %v", err)
	}
	names := make(map[string]bool, len(payload.Families))
	for _, f := range payload.Families {
		names[f.Name] = true
	}
	for _, f := range families {
		if !names[f] {
			t.Errorf("JSON metrics missing family %s", f)
		}
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestUnmatchedRoutesGetJSONEnvelope checks that the mux's plain-text
// fallbacks are replaced by the API's uniform error envelope.
func TestUnmatchedRoutesGetJSONEnvelope(t *testing.T) {
	s := testServer(t)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/no/such/route", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("404 body is not the JSON envelope: %v: %s", err, rec.Body.String())
	}
	if env.Error.Code != "not_found" {
		t.Errorf("code = %q", env.Error.Code)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Errorf("Allow = %q, want GET advertised", allow)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("405 body is not the JSON envelope: %v: %s", err, rec.Body.String())
	}
	if env.Error.Code != "method_not_allowed" {
		t.Errorf("code = %q", env.Error.Code)
	}
}

// TestHealthzReadiness checks the extended readiness payload.
func TestHealthzReadiness(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var hr api.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Errorf("status = %q", hr.Status)
	}
	if hr.UptimeS < 0 {
		t.Errorf("uptimeS = %v", hr.UptimeS)
	}
	if hr.Engine.Workers != 2 {
		t.Errorf("engine.workers = %d, want 2", hr.Engine.Workers)
	}
	if hr.GoVersion == "" {
		t.Errorf("goVersion missing")
	}
}

// TestJobTraceEndpoint checks that a finished job's trace comes back as
// Chrome trace_event JSON with spans from the tuner and simulator layers.
func TestJobTraceEndpoint(t *testing.T) {
	s := testServer(t)
	body := `{"tenant":"acme","workload":"wordcount","inputGB":8}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs status = %d: %s", rec.Code, rec.Body.String())
	}
	var job jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	awaitJob(t, s, job.ID)

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace status = %d: %s", rec.Code, rec.Body.String())
	}
	var tr struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats := make(map[string]bool)
	for _, ev := range tr.TraceEvents {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"core", "tuner", "spark"} {
		if !cats[want] {
			t.Errorf("trace has no %q spans (got %v)", want, cats)
		}
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-999999/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing-job trace status = %d", rec.Code)
	}
}

// TestMetricsJSONQuantiles: sketched histogram families (HTTP latency,
// tuner timings) must expose p50/p90/p99 in the JSON exposition, and the
// Prometheus text form must stay quantile-free (fixed buckets only).
func TestMetricsJSONQuantiles(t *testing.T) {
	s := testServer(t)
	// Two requests: the middleware observes latency after the handler
	// returns, so the second gather sees the first request's sample.
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz status = %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var snap struct {
		Families []struct {
			Name   string `json:"name"`
			Series []struct {
				Quantiles map[string]float64 `json:"quantiles"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range snap.Families {
		if f.Name != "http_request_seconds" {
			continue
		}
		for _, se := range f.Series {
			if len(se.Quantiles) == 0 {
				continue
			}
			found = true
			for _, q := range []string{"p50", "p90", "p99"} {
				if _, ok := se.Quantiles[q]; !ok {
					t.Errorf("http_request_seconds quantiles missing %s: %v", q, se.Quantiles)
				}
			}
			if se.Quantiles["p50"] > se.Quantiles["p99"] {
				t.Errorf("p50 %v > p99 %v", se.Quantiles["p50"], se.Quantiles["p99"])
			}
		}
	}
	if !found {
		t.Fatal("no http_request_seconds series carries quantiles")
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), "quantile") {
		t.Error("Prometheus text exposition leaked quantiles")
	}
}
