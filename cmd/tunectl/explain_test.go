package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seamlesstune/internal/api"
)

const cannedExplain = `{
  "job": "job-000001", "state": "done", "diagnostics": true, "surrogate": "gp", "events": 42,
  "phases": [
    {"phase": "cloud", "trials": 10, "failed": 1, "bestSoFar": 98.2, "plateau": 2,
     "decisions": 6, "lastEI": 0.004, "peakEI": 0.08, "eiDecay": 0.05, "exploitShare": 0.9,
     "calibration": {"scores": 8, "coverage1": 0.625, "coverage2": 0.875, "rmse": 0.21,
                     "nlpd": -0.1, "severity": "ok", "detail": "calibration within tolerance"},
     "stall": {"plateau": 9, "eiDecay": 0.05, "severity": "warn",
               "detail": "9 trials without improvement"}},
    {"phase": "disc", "trials": 5, "failed": 0, "bestSoFar": 77.1, "plateau": 0,
     "decisions": 5, "lastEI": 0.3, "peakEI": 0.3, "eiDecay": 1, "exploitShare": 0.2}
  ]
}`

func explainTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/job-000001/explain" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such job"}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, cannedExplain)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestExplainPretty(t *testing.T) {
	ts := explainTestServer(t)
	var out bytes.Buffer
	if err := run([]string{"explain", "job-000001", "-server", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"job job-000001 (done), surrogate gp, 42 events retained",
		"phase cloud: 10 trials (1 failed), best 98.2s, 2 since improvement",
		"6 EI-guided decisions, last EI 0.004 (peak 0.08, decayed to 5%), exploit share 90%",
		"calibration [OK]: 1σ 62% / 2σ 88% coverage over 8 scores",
		"stall [WARN]: plateau 9, EI at 5% of peak — 9 trials without improvement",
		"phase disc: 5 trials (0 failed), best 77.1s",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "diagnostics were disabled") {
		t.Errorf("diagnostics-disabled note printed for a diagnosed job:\n%s", text)
	}
}

func TestExplainJSON(t *testing.T) {
	ts := explainTestServer(t)
	var out bytes.Buffer
	if err := run([]string{"explain", "job-000001", "-json", "-server", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	// Raw mode re-indents but must not reshape the document.
	for _, want := range []string{`"surrogate": "gp"`, `"exploitShare": 0.9`, `"severity": "warn"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("raw output missing %q:\n%s", want, out.String())
		}
	}
	// Exactly the indented document and one newline.
	var doc api.ExplainResponse
	if err := json.Unmarshal([]byte(cannedExplain), &doc); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want)+"\n" {
		t.Errorf("raw output is not MarshalIndent(doc) plus one newline:\n got %q\nwant %q", got, string(want)+"\n")
	}
}

func TestExplainErrors(t *testing.T) {
	ts := explainTestServer(t)
	if err := run([]string{"explain"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "usage:") {
		t.Errorf("missing job id error = %v", err)
	}
	err := run([]string{"explain", "job-999999", "-server", ts.URL}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("unknown job error = %v", err)
	}
}
