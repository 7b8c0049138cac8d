package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/telemetry"
)

func TestQueryEndpoint(t *testing.T) {
	s := testServer(t)
	// Drive two deterministic polls instead of waiting on the background
	// sampler.
	now := time.Now()
	s.telemetry.Poll(now.Add(-2 * time.Second))
	s.telemetry.Poll(now.Add(-1 * time.Second))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?metric=jobs_queue_depth", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var qr api.QueryResponse
	decodeStrict(t, rec.Body.Bytes(), &qr)
	if qr.Metric != "jobs_queue_depth" {
		t.Errorf("metric = %q", qr.Metric)
	}
	if len(qr.Series) != 1 || len(qr.Series[0].Points) == 0 {
		t.Fatalf("series = %+v, want one with points", qr.Series)
	}
	if qr.StepS < s.telemetry.Interval().Seconds() {
		t.Errorf("step %vs below the sampling interval", qr.StepS)
	}
}

func TestQueryEndpointValidation(t *testing.T) {
	s := testServer(t)
	s.telemetry.Poll(time.Now())

	cases := []struct {
		url  string
		want string
	}{
		{"/v1/query", "metric is required"},
		{"/v1/query?metric=x&from=bogus", "bad from"},
		{"/v1/query?metric=x&to=bogus", "bad to"},
		{"/v1/query?metric=x&from=2000&to=1000", "from must precede"},
		{"/v1/query?metric=x&step=nope", "bad step"},
		{"/v1/query?metric=x&step=-5s", "bad step"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.url, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: body %q missing %q", c.url, rec.Body.String(), c.want)
		}
	}
	// The missing-metric hint lists known metrics for discovery.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil))
	if !strings.Contains(rec.Body.String(), "jobs_queue_depth") {
		t.Errorf("error hint does not list known metrics: %s", rec.Body.String())
	}
	// An unknown metric is an empty result, not an error.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?metric=no_such_metric", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"series": []`) {
		t.Errorf("unknown metric: status %d body %s", rec.Code, rec.Body.String())
	}
}

func TestQueryEndpointLabelMatcher(t *testing.T) {
	s := testServer(t)
	rec0 := httptest.NewRecorder()
	s.ServeHTTP(rec0, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"acme","workload":"wordcount","inputGB":1}`)))
	if rec0.Code != http.StatusAccepted && rec0.Code != http.StatusOK {
		t.Fatalf("submit status = %d: %s", rec0.Code, rec0.Body.String())
	}
	s.telemetry.Poll(time.Now().Add(-time.Second))
	s.telemetry.Poll(time.Now())

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v1/query?metric=jobs_submitted_total&tenant=acme", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var qr api.QueryResponse
	decodeStrict(t, rec.Body.Bytes(), &qr)
	for _, sr := range qr.Series {
		if sr.Labels["tenant"] != "acme" {
			t.Errorf("matcher leaked series %+v", sr.Labels)
		}
	}
}

func TestAlertsEndpoint(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/alerts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var ar api.AlertsResponse
	decodeStrict(t, rec.Body.Bytes(), &ar)
	if len(ar.Alerts) != len(telemetry.DefaultRules()) {
		t.Fatalf("%d rules exposed, want the %d defaults", len(ar.Alerts), len(telemetry.DefaultRules()))
	}
	if ar.Firing != 0 {
		t.Errorf("fresh server firing = %d", ar.Firing)
	}
	for _, a := range ar.Alerts {
		if a.State != telemetry.StateInactive {
			t.Errorf("rule %s starts %s, want inactive", a.Name, a.State)
		}
		if a.Detail == "" {
			t.Errorf("rule %s has no detail", a.Name)
		}
	}
}

func TestAlertRulesFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	os.WriteFile(path, []byte(`[{"name":"custom","kind":"threshold","metric":"jobs_queue_depth","value":1,"window":"1m","for":"1m"}]`), 0o644)
	s, err := newServer(serverConfig{Seed: 1, Params: 10, CloudBudget: 6, DISCBudget: 10, Workers: 1, AlertRules: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/alerts", nil))
	if !strings.Contains(rec.Body.String(), `"custom"`) {
		t.Errorf("custom rule not loaded: %s", rec.Body.String())
	}

	// A malformed rules file must fail startup, not limp along unalerted.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`[{"name":"x","kind":"wat"}]`), 0o644)
	if _, err := newServer(serverConfig{Seed: 1, Params: 10, CloudBudget: 6, DISCBudget: 10, Workers: 1, AlertRules: bad}); err == nil {
		t.Fatal("invalid rules accepted")
	}
}

func TestHealthzReportsTelemetry(t *testing.T) {
	s := testServer(t)
	s.telemetry.Poll(time.Now())
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hr api.HealthResponse
	decodeStrict(t, rec.Body.Bytes(), &hr)
	if hr.Telemetry.Series == 0 || hr.Telemetry.Samples == 0 {
		t.Errorf("healthz telemetry block empty: %+v", hr.Telemetry)
	}
}
