package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seamlesstune/internal/api"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
)

// The pure fold: synthetic events in, explain document out.
func TestExplainJobFold(t *testing.T) {
	job := jobs.Job{ID: "job-1", State: jobs.StateDone, Surrogate: "gp", Diagnostics: true}
	events := []obs.Event{
		// Another job's events must not leak in.
		{Seq: 1, Type: obs.EventTrial, Session: "job-2", Phase: "cloud", Trial: 1, BestSoFar: 50},
		{Seq: 2, Type: obs.EventSessionStart, Session: "job-1"},
		{Seq: 3, Type: obs.EventDecide, Session: "job-1", Phase: "cloud", Trial: 1,
			EI: 0.2, EIExploit: 0.15, EIExplore: 0.05},
		{Seq: 4, Type: obs.EventTrial, Session: "job-1", Phase: "cloud", Trial: 1,
			RuntimeS: 100, BestSoFar: 100},
		{Seq: 5, Type: obs.EventDecide, Session: "job-1", Phase: "cloud", Trial: 2,
			EI: 0.05, EIExploit: 0.01, EIExplore: 0.04},
		// Worse than the incumbent: plateau grows.
		{Seq: 6, Type: obs.EventTrial, Session: "job-1", Phase: "cloud", Trial: 2,
			RuntimeS: 120, BestSoFar: 100, RegretS: 20},
		{Seq: 7, Type: obs.EventTrial, Session: "job-1", Phase: "cloud", Trial: 3, Failed: true},
		{Seq: 8, Type: obs.EventModelHealth, Session: "job-1", Phase: "cloud", Trial: 3,
			Scores: 6, Coverage1: 0.5, Coverage2: 0.8, RMSE: 0.3, NLPD: 0.1,
			Severity: "warn", Detail: "surrogate overconfident"},
		{Seq: 9, Type: obs.EventStall, Session: "job-1", Phase: "cloud", Trial: 3,
			Plateau: 8, EIDecay: 0.02, Severity: "warn", Detail: "no improvement for 8 trials"},
		// A second phase with an improving trial.
		{Seq: 10, Type: obs.EventDecide, Session: "job-1", Phase: "disc", Trial: 4, EI: 0.4,
			EIExploit: 0.1, EIExplore: 0.3},
		{Seq: 11, Type: obs.EventTrial, Session: "job-1", Phase: "disc", Trial: 4,
			RuntimeS: 80, BestSoFar: 80},
	}
	resp := explainJob(job, events)
	if resp.Job != "job-1" || resp.State != "done" || !resp.Diagnostics || resp.Surrogate != "gp" {
		t.Fatalf("header wrong: %+v", resp)
	}
	if resp.Events != 10 {
		t.Errorf("folded %d events, want 10 (job-2's must be excluded)", resp.Events)
	}
	if len(resp.Phases) != 2 || resp.Phases[0].Phase != "cloud" || resp.Phases[1].Phase != "disc" {
		t.Fatalf("phases = %+v, want [cloud disc] in first-seen order", resp.Phases)
	}
	cl := resp.Phases[0]
	if cl.Trials != 3 || cl.Failed != 1 {
		t.Errorf("cloud trials/failed = %d/%d, want 3/1", cl.Trials, cl.Failed)
	}
	if cl.BestSoFar != 100 {
		t.Errorf("cloud best = %g, want 100", cl.BestSoFar)
	}
	if cl.Plateau != 1 {
		t.Errorf("cloud plateau = %d, want 1 (one non-improving success after the incumbent)", cl.Plateau)
	}
	if cl.Decisions != 2 || cl.LastEI != 0.05 || cl.PeakEI != 0.2 {
		t.Errorf("cloud EI trace = %+v, want 2 decisions, last 0.05, peak 0.2", cl)
	}
	if want := 0.05 / 0.2; cl.EIDecay != want {
		t.Errorf("cloud eiDecay = %g, want %g", cl.EIDecay, want)
	}
	exploit, explore := 0.01, 0.04
	if want := exploit / (exploit + explore); cl.ExploitShare != want {
		t.Errorf("cloud exploitShare = %g, want %g", cl.ExploitShare, want)
	}
	if cl.Calibration == nil || cl.Calibration.Severity != "warn" || cl.Calibration.Scores != 6 {
		t.Errorf("cloud calibration = %+v", cl.Calibration)
	}
	if cl.Stall == nil || cl.Stall.Plateau != 8 || cl.Stall.Severity != "warn" {
		t.Errorf("cloud stall = %+v", cl.Stall)
	}
	disc := resp.Phases[1]
	if disc.Trials != 1 || disc.Plateau != 0 || disc.Decisions != 1 || disc.EIDecay != 1 {
		t.Errorf("disc phase = %+v", disc)
	}
	if disc.Calibration != nil || disc.Stall != nil {
		t.Errorf("disc verdicts should be absent before the diagnostics speak: %+v", disc)
	}
}

func TestExplainEndpointEndToEnd(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"acme","workload":"wordcount","inputGB":2}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
	}
	jv := decodeJob(t, rec.Body.Bytes())
	awaitJob(t, s, jv.ID)

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+jv.ID+"/explain", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp api.ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Job != jv.ID || resp.State != "done" || !resp.Diagnostics {
		t.Fatalf("explain header = %+v", resp)
	}
	if len(resp.Phases) == 0 || resp.Events == 0 {
		t.Fatalf("explain carries no telemetry: %+v", resp)
	}
	var sawDecisions, sawCalibration bool
	for _, p := range resp.Phases {
		if p.Decisions > 0 {
			sawDecisions = true
			if p.PeakEI < p.LastEI {
				t.Errorf("phase %s: peak EI %g below last %g", p.Phase, p.PeakEI, p.LastEI)
			}
		}
		if p.Calibration != nil {
			sawCalibration = true
			if p.Calibration.Severity == "" {
				t.Errorf("phase %s: calibration without severity", p.Phase)
			}
		}
	}
	if !sawDecisions {
		t.Error("no phase carries decisions")
	}
	if !sawCalibration {
		t.Error("no phase carries a calibration verdict")
	}

	// Unknown jobs 404 with the error envelope.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-999999/explain", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job explain status = %d", rec.Code)
	}
}

// With diagnostics disabled server-wide, explain still answers but says
// so, and carries no decide-derived content.
func TestExplainWithDiagnosticsDisabled(t *testing.T) {
	s, err := newServer(serverConfig{Seed: 1, Params: 10, CloudBudget: 6, DISCBudget: 10,
		Workers: 2, DisableDiagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"acme","workload":"wordcount","inputGB":2}`)))
	jv := decodeJob(t, rec.Body.Bytes())
	awaitJob(t, s, jv.ID)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+jv.ID+"/explain", nil))
	var resp api.ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Diagnostics {
		t.Error("job should echo diagnostics disabled")
	}
	for _, p := range resp.Phases {
		if p.Decisions != 0 || p.Calibration != nil || p.Stall != nil {
			t.Errorf("diagnostics content with diagnostics off: %+v", p)
		}
	}
}
