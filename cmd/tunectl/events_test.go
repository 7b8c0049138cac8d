package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seamlesstune/internal/obs"
)

// cannedEvents is a miniature session stream, including the diagnostics
// families (decide, model_health, stall).
func cannedEvents() []obs.Event {
	return []obs.Event{
		{Seq: 1, TimeNS: 1, Type: obs.EventSessionStart, Session: "job-000001",
			Tenant: "acme", Workload: "sort", BudgetTrials: 5},
		{Seq: 2, TimeNS: 2, Type: obs.EventDecide, Session: "job-000001", Tenant: "acme",
			Workload: "sort", Phase: "cloud", Trial: 1, Surrogate: "gp", Candidates: 120,
			Rank: 1, PredMean: 4.8, PredStd: 0.12, EI: 0.05, EIExploit: 0.03, EIExplore: 0.02,
			TopK: "1:0.05(0.03+0.02)"},
		{Seq: 3, TimeNS: 3, Type: obs.EventTrial, Session: "job-000001", Tenant: "acme",
			Workload: "sort", Phase: "cloud", Trial: 1, RuntimeS: 120.5, Objective: 120.5,
			BestSoFar: 120.5, Cluster: "4x nimbus/h1.4xlarge", CostUSD: 0.05, SpendUSD: 0.05,
			Attainment: 0.5},
		{Seq: 4, TimeNS: 4, Type: obs.EventTrial, Session: "job-000001", Tenant: "acme",
			Workload: "sort", Phase: "cloud", Trial: 2, Failed: true, CostUSD: 0.01, SpendUSD: 0.06},
		{Seq: 5, TimeNS: 5, Type: obs.EventModelHealth, Session: "job-000001", Tenant: "acme",
			Workload: "sort", Phase: "cloud", Trial: 2, Scores: 10, Coverage1: 0.7,
			Coverage2: 0.95, RMSE: 0.12, NLPD: -0.3, Severity: "ok",
			Detail: "calibration within tolerance"},
		{Seq: 6, TimeNS: 6, Type: obs.EventStall, Session: "job-000001", Tenant: "acme",
			Workload: "sort", Phase: "cloud", Trial: 2, Plateau: 9, EI: 0.002, EIPeak: 0.05,
			EIDecay: 0.04, Severity: "warn", Detail: "9 trials without improvement"},
		{Seq: 7, TimeNS: 7, Type: obs.EventSLOViolation, Session: "job-000001", Tenant: "acme",
			Workload: "sort", Detail: "tuning spend $0.0600 exceeds budget $0.0500"},
		{Seq: 8, TimeNS: 8, Type: obs.EventSessionEnd, Session: "job-000001", Tenant: "acme",
			Workload: "sort", SpendUSD: 0.06, Detail: "ok"},
	}
}

// sseTestServer serves the canned events as one SSE stream on the job
// events route, honoring ?from=, and reports the job as done on the
// status route (so the tail knows a closed stream is the end).
func sseTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/job-000001/events":
			w.Header().Set("Content-Type", "text/event-stream")
			from := uint64(0)
			fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from)
			var buf []byte
			for _, e := range cannedEvents() {
				if e.Seq <= from {
					continue
				}
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, e.AppendJSONL(buf[:0]))
			}
		case "/v1/jobs/job-000001":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"id":"job-000001","state":"done"}`)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such job"}}`)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestEventsPretty(t *testing.T) {
	ts := sseTestServer(t)
	var out bytes.Buffer
	if err := run([]string{"events", "job-000001", "-server", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"session job-000001 started: acme/sort, budget 5 trials",
		"decide [cloud] trial 1: EI 0.05 (exploit 0.03 + explore 0.02) rank 1/120 via gp",
		"trial   1 [cloud] 120.5s",
		"best 120.5s",
		"on 4x nimbus/h1.4xlarge",
		"FAILED",
		"model health [cloud] OK: 1σ 70% / 2σ 95% coverage",
		"over 10 scores — calibration within tolerance",
		"stall [cloud] WARN: plateau 9, EI at 4% of peak — 9 trials without improvement",
		"SLO VIOLATION: tuning spend $0.0600 exceeds budget $0.0500",
		"session job-000001 ended: ok (total spend $0.0600)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if lines := strings.Count(strings.TrimSpace(text), "\n") + 1; lines != len(cannedEvents()) {
		t.Errorf("got %d lines, want %d:\n%s", lines, len(cannedEvents()), text)
	}
}

func TestEventsJSON(t *testing.T) {
	ts := sseTestServer(t)
	var out bytes.Buffer
	if err := run([]string{"events", "job-000001", "-json", "-server", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(cannedEvents()) {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), len(cannedEvents()))
	}
	// Raw relay: each line must be byte-identical to the wire encoding.
	var buf []byte
	for i, e := range cannedEvents() {
		if want := string(e.AppendJSONL(buf[:0])); lines[i] != want {
			t.Errorf("line %d = %s, want %s", i, lines[i], want)
		}
	}
}

func TestEventsErrors(t *testing.T) {
	ts := sseTestServer(t)
	if err := run([]string{"events"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "usage:") {
		t.Errorf("missing job id error = %v", err)
	}
	err := run([]string{"events", "job-999999", "-server", ts.URL}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not_found") {
		t.Errorf("unknown job error = %v", err)
	}
}

// TestEventsReconnectGapless drops the stream mid-session and checks the
// tail resumes from the last acknowledged sequence number: every event
// exactly once, in order, with the resume request carrying both ?from=
// and the Last-Event-ID header.
func TestEventsReconnectGapless(t *testing.T) {
	oldDelay := reconnectDelay
	reconnectDelay = time.Millisecond
	defer func() { reconnectDelay = oldDelay }()

	const dropAfter = 3 // close the first stream after this many events
	var (
		mu       sync.Mutex
		conns    int
		resumeQ  string
		resumeID string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/job-000001/events":
			mu.Lock()
			conns++
			first := conns == 1
			if !first && resumeQ == "" {
				resumeQ = r.URL.Query().Get("from")
				resumeID = r.Header.Get("Last-Event-ID")
			}
			mu.Unlock()
			w.Header().Set("Content-Type", "text/event-stream")
			from := uint64(0)
			fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from)
			sent := 0
			var buf []byte
			for _, e := range cannedEvents() {
				if e.Seq <= from {
					continue
				}
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, e.AppendJSONL(buf[:0]))
				sent++
				if first && sent == dropAfter {
					return // simulate a dropped connection
				}
			}
		case "/v1/jobs/job-000001":
			// Still running until the stream has been served in full.
			mu.Lock()
			state := "running"
			if conns >= 2 {
				state = "done"
			}
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"id":"job-000001","state":%q}`, state)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"events", "job-000001", "-json", "-server", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(cannedEvents()) {
		t.Fatalf("resumed tail printed %d events, want %d (no gaps, no duplicates):\n%s",
			len(lines), len(cannedEvents()), out.String())
	}
	var buf []byte
	for i, e := range cannedEvents() {
		if want := string(e.AppendJSONL(buf[:0])); lines[i] != want {
			t.Errorf("line %d = %s, want %s", i, lines[i], want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns < 2 {
		t.Fatalf("expected a reconnect, got %d connection(s)", conns)
	}
	if want := fmt.Sprint(dropAfter); resumeQ != want || resumeID != want {
		t.Errorf("resume request: from=%q Last-Event-ID=%q, want both %q", resumeQ, resumeID, want)
	}
}

// TestEventsGivesUpWhenUnreachable bounds the retry loop: a server that
// never answers must fail after maxReconnectFailures attempts.
func TestEventsGivesUpWhenUnreachable(t *testing.T) {
	oldDelay := reconnectDelay
	reconnectDelay = time.Millisecond
	defer func() { reconnectDelay = oldDelay }()

	err := run([]string{"events", "job-000001", "-server", "http://127.0.0.1:1"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("expected unreachable error, got %v", err)
	}
}

// TestEventsMalformedIsTerminal sends two good events and then a data
// line that is not an event: the tail prints the two, returns the decode
// error, and does not reconnect.
func TestEventsMalformedIsTerminal(t *testing.T) {
	oldDelay := reconnectDelay
	reconnectDelay = time.Millisecond
	defer func() { reconnectDelay = oldDelay }()

	var (
		mu    sync.Mutex
		conns int
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/job-000001/events" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		mu.Lock()
		conns++
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		var buf []byte
		for _, e := range cannedEvents()[:2] {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, e.AppendJSONL(buf[:0]))
		}
		fmt.Fprint(w, "id: 3\nevent: trial\ndata: {not json\n\n")
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"events", "job-000001", "-server", ts.URL}, &out)
	if err == nil || !strings.Contains(err.Error(), "malformed event") {
		t.Fatalf("err = %v, want malformed event error", err)
	}
	for _, want := range []string{"session job-000001 started", "decide [cloud] trial 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if lines := strings.Count(out.String(), "\n"); lines != 2 {
		t.Errorf("printed %d lines, want the 2 good events:\n%s", lines, out.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("connections = %d, want 1 (a decode error is terminal)", conns)
	}
}
