package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/cloud"
	"seamlesstune/internal/history"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/storage"
)

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	ID    uint64
	Type  string
	Event obs.Event
}

// readSSE consumes an SSE body until EOF (or until limit events), parsing
// id:/event:/data: frames. The data line is the JSONL encoding, so
// encoding/json decodes it directly — the round-trip the hand-rolled
// encoder guarantees.
func readSSE(t *testing.T, resp *http.Response, limit int) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Type = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.Event); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		case line == "":
			if cur.Type != "" {
				out = append(out, cur)
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
			cur = sseEvent{}
		}
	}
	return out
}

// submitEventsJob posts a tuning job with a deliberately tiny tuning
// budget, so the session must emit slo_violation events, and returns the
// job ID.
func submitEventsJob(t *testing.T, s *server) string {
	t.Helper()
	body := `{"tenant":"acme","workload":"wordcount","inputGB":2,
		"objective":{"deadlineS":3600,"tuningBudgetUSD":1e-6}}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs status = %d: %s", rec.Code, rec.Body.String())
	}
	jv := decodeJob(t, rec.Body.Bytes())
	return jv.ID
}

// TestJobEventStreamE2E drives a full tuning job through the HTTP API and
// audits its SSE telemetry stream end to end: framing, ordering, monotone
// best-so-far, spend that reconciles exactly against the cloud pricing
// model, and the SLO violation the tiny budget forces.
func TestJobEventStreamE2E(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submitEventsJob(t, s)
	awaitJob(t, s, id)

	// The job is terminal, so the stream is pure ring replay and must
	// terminate on its own (no client-side cancel needed).
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp, 0)
	if len(events) < 3 {
		t.Fatalf("got %d events, want at least start/trial/end", len(events))
	}

	for _, e := range events {
		if e.ID != e.Event.Seq {
			t.Errorf("SSE id %d != event seq %d", e.ID, e.Event.Seq)
		}
		if e.Type != string(e.Event.Type) {
			t.Errorf("SSE event field %q != payload type %q", e.Type, e.Event.Type)
		}
		if e.Event.Session != id || e.Event.Tenant != "acme" || e.Event.Workload != "wordcount" {
			t.Errorf("event identity = %s/%s/%s, want %s/acme/wordcount",
				e.Event.Session, e.Event.Tenant, e.Event.Workload, id)
		}
	}
	if events[0].Event.Type != obs.EventSessionStart {
		t.Errorf("first event = %s, want session_start", events[0].Event.Type)
	}
	if last := events[len(events)-1].Event; last.Type != obs.EventSessionEnd {
		t.Errorf("last event = %s, want session_end", last.Type)
	}

	catalog := cloud.DefaultCatalog()
	trials, violations := 0, 0
	prevBest := math.Inf(1)
	var sum float64
	var lastSpend float64
	for _, e := range events {
		ev := e.Event
		switch ev.Type {
		case obs.EventTrial, obs.EventExecution:
			sum += ev.CostUSD
			if math.Abs(ev.SpendUSD-sum) > 1e-9 {
				t.Fatalf("event %d spend %v != running cost sum %v", ev.Seq, ev.SpendUSD, sum)
			}
			lastSpend = ev.SpendUSD
			if ev.Cluster != "" {
				spec := parseCluster(t, catalog, ev.Cluster)
				if want := spec.CostOf(ev.RuntimeS); math.Abs(ev.CostUSD-want) > 1e-9 {
					t.Errorf("event %d cost %v != CostOf(%v) = %v on %s",
						ev.Seq, ev.CostUSD, ev.RuntimeS, want, ev.Cluster)
				}
			}
		case obs.EventSLOViolation:
			violations++
			if !strings.Contains(ev.Detail, "exceeds budget") {
				t.Errorf("violation detail = %q, want spend-budget text", ev.Detail)
			}
		}
		if ev.Type != obs.EventTrial {
			continue
		}
		trials++
		if ev.Trial != trials {
			t.Errorf("trial numbering: got %d, want %d", ev.Trial, trials)
		}
		if ev.BestSoFar != 0 {
			if ev.BestSoFar > prevBest+1e-12 {
				t.Errorf("best-so-far regressed: %v after %v at trial %d", ev.BestSoFar, prevBest, ev.Trial)
			}
			prevBest = ev.BestSoFar
		}
	}
	if trials < 1 {
		t.Fatal("no trial events in stream")
	}
	if violations == 0 {
		t.Error("tiny tuning budget produced no slo_violation events")
	}
	if end := events[len(events)-1].Event; math.Abs(end.SpendUSD-lastSpend) > 1e-9 {
		t.Errorf("session_end spend %v != last accrued spend %v", end.SpendUSD, lastSpend)
	}
}

// parseCluster resolves "4x nimbus/h1.4xlarge" back to a ClusterSpec.
func parseCluster(t *testing.T, c *cloud.Catalog, s string) cloud.ClusterSpec {
	t.Helper()
	i := strings.Index(s, "x ")
	if i < 0 {
		t.Fatalf("unparseable cluster %q", s)
	}
	count, err := strconv.Atoi(s[:i])
	if err != nil {
		t.Fatalf("unparseable cluster count in %q: %v", s, err)
	}
	inst, err := c.Lookup(s[i+2:])
	if err != nil {
		t.Fatalf("unknown instance in %q: %v", s, err)
	}
	return cloud.ClusterSpec{Instance: inst, Count: count}
}

// TestJobEventStreamResume verifies ?from= / Last-Event-ID replay: a
// reconnect that presents a mid-stream cursor receives exactly the
// events after it, no gap and no duplicate.
func TestJobEventStreamResume(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submitEventsJob(t, s)
	awaitJob(t, s, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	all := readSSE(t, resp, 0)
	if len(all) < 4 {
		t.Fatalf("need a few events to split, got %d", len(all))
	}
	cursor := all[len(all)/2].ID

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatUint(cursor, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rest := readSSE(t, resp2, 0)
	want := all[len(all)/2+1:]
	if len(rest) != len(want) {
		t.Fatalf("resume from %d returned %d events, want %d", cursor, len(rest), len(want))
	}
	for i := range rest {
		if rest[i].ID != want[i].ID {
			t.Errorf("resume event %d has seq %d, want %d", i, rest[i].ID, want[i].ID)
		}
	}

	// An explicit ?from= beyond the end yields an empty, terminated stream.
	resp3, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events?from=" +
		strconv.FormatUint(all[len(all)-1].ID, 10))
	if err != nil {
		t.Fatal(err)
	}
	if tail := readSSE(t, resp3, 0); len(tail) != 0 {
		t.Errorf("from=end returned %d events, want 0", len(tail))
	}
}

// TestJobEventStreamClosesOnFinishedJob pins that a job-scoped stream
// ends on the engine's terminal signal, not on a poll: replaying a job
// that has already finished must close as soon as the replay is sent.
func TestJobEventStreamClosesOnFinishedJob(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submitEventsJob(t, s)
	awaitJob(t, s, id)

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp, 0)
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Errorf("finished job's stream closed after %v, want < 100ms", elapsed)
	}
	if len(events) == 0 || events[len(events)-1].Event.Type != obs.EventSessionEnd {
		t.Errorf("replay of a finished job must end with session_end, got %d events", len(events))
	}
}

func TestJobEventsUnknownJob(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-999999/events", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}

// TestShutdownClosesStreamsAndFlushes pins the graceful-shutdown
// semantics: Close must unblock live SSE tailers (the event log closes
// their channels) and leave the event stream durable in the WAL after the
// engine has drained — so a restarted backend recovers the complete
// session history.
func TestShutdownClosesStreamsAndFlushes(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(serverConfig{
		Seed: 1, Params: 10, CloudBudget: 5, DISCBudget: 8, Workers: 2,
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submitEventsJob(t, s)
	awaitJob(t, s, id)

	// A live tail of the global stream: it has no terminal condition, so
	// only shutdown can end it.
	resp, err := http.Get(ts.URL + "/v1/events?from=999999")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		readSSE(t, resp, 0)
	}()

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a live SSE subscriber")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not end on shutdown")
	}

	b, err := storage.Open(storage.Config{DataDir: dir, CompactSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	events, err := b.Recover(&history.Store{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("flushed %d events, want a full session", len(events))
	}
	var sawStart, sawEnd bool
	var prevSeq uint64
	for _, e := range events {
		if e.Seq <= prevSeq {
			t.Fatalf("flush out of order: seq %d after %d", e.Seq, prevSeq)
		}
		prevSeq = e.Seq
		switch e.Type {
		case obs.EventSessionStart:
			sawStart = true
		case obs.EventSessionEnd:
			sawEnd = true
		}
	}
	if !sawStart || !sawEnd {
		t.Errorf("flush missing session bounds: start=%v end=%v", sawStart, sawEnd)
	}

	// Close again: must be a no-op, not a deadlock or double-close panic.
	s.Close()
}

// TestUsageEndpoints verifies the per-tenant accounting surfaced over
// HTTP reconciles with the job's own telemetry stream.
func TestUsageEndpoints(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submitEventsJob(t, s)
	awaitJob(t, s, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var wantTrials int
	var wantSpend float64
	for _, e := range readSSE(t, resp, 0) {
		if e.Event.Type == obs.EventTrial || e.Event.Type == obs.EventExecution {
			wantTrials++
			wantSpend += e.Event.CostUSD
		}
	}

	// The usage pump folds events asynchronously; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants/acme/usage", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET usage status = %d: %s", rec.Code, rec.Body.String())
		}
		var u struct {
			Tenant     string  `json:"tenant"`
			Jobs       int     `json:"jobs"`
			Trials     int     `json:"trials"`
			SpendUSD   float64 `json:"spendUSD"`
			Attainment float64 `json:"attainment"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &u); err != nil {
			t.Fatal(err)
		}
		if u.Trials == wantTrials {
			if u.Jobs != 1 || math.Abs(u.SpendUSD-wantSpend) > 1e-9 {
				t.Fatalf("usage = %+v, want 1 job, spend %v", u, wantSpend)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("usage trials = %d, want %d", u.Trials, wantTrials)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/usage", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"acme"`) {
		t.Fatalf("GET /v1/usage = %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants/nobody/usage", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, want 404", rec.Code)
	}
}

// TestObjectiveValidation rejects negative objective clauses.
func TestObjectiveValidation(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	body := `{"tenant":"acme","workload":"wordcount","inputGB":2,"objective":{"deadlineS":-1}}`
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestDashboardServed sanity-checks the zero-dependency dashboard: HTML,
// wired to the SSE feed, no external asset references.
func TestDashboardServed(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dashboard", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "EventSource") || !strings.Contains(body, "/v1/events") {
		t.Error("dashboard does not subscribe to /v1/events")
	}
	for _, banned := range []string{"<script src=", "<link ", "http://", "https://"} {
		if strings.Contains(body, banned) {
			t.Errorf("dashboard references external assets: found %q", banned)
		}
	}
	// The pruning KPI: the page must subscribe to prune events and render
	// the active-dimension count.
	if !strings.Contains(body, `"prune"`) || !strings.Contains(body, `data-k="dims"`) {
		t.Error("dashboard missing the active-dims KPI wired to prune events")
	}
}

// TestHealthzReportsEvents: the readiness payload must surface event-bus
// occupancy so operators can see drops.
func TestHealthzReportsEvents(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := submitEventsJob(t, s)
	awaitJob(t, s, id)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hr api.HealthResponse
	decodeStrict(t, rec.Body.Bytes(), &hr)
	if hr.Events.Published == 0 || hr.Events.Capacity == 0 {
		t.Errorf("healthz events stats empty: %+v", hr.Events)
	}
}
