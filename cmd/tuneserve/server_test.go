package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/jobs"
)

func testServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(serverConfig{Seed: 1, Params: 10, CloudBudget: 6, DISCBudget: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// decodeStrict decodes one response body into v, failing the test on a
// field v's type does not declare.
func decodeStrict(t testing.TB, raw []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decoding %T: %v in %.300s", v, err, raw)
	}
}

// decodeJob decodes a job body into jobs.Job, a done job's result into
// api.TuneResponse.
func decodeJob(t testing.TB, raw []byte) jobs.Job {
	t.Helper()
	job := jobs.Job{Result: new(api.TuneResponse)}
	decodeStrict(t, raw, &job)
	return job
}

// tuneResult returns a decoded job's tune result.
func tuneResult(job jobs.Job) *api.TuneResponse {
	res, _ := job.Result.(*api.TuneResponse)
	return res
}

// awaitJob polls GET /v1/jobs/{id} until the job is terminal.
func awaitJob(t *testing.T, s *server, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s status = %d: %s", id, rec.Code, rec.Body.String())
		}
		if job := decodeJob(t, rec.Body.Bytes()); job.State.Terminal() {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobs.Job{}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("body = %s", rec.Body.String())
	}
}

// With the evaluation cache enabled, /healthz must surface hit/miss
// stats once tuning traffic has flowed, and /metrics must expose the
// simcache counter families.
func TestHealthzReportsSimCache(t *testing.T) {
	s, err := newServer(serverConfig{Seed: 1, Params: 10, CloudBudget: 5, DISCBudget: 8, Workers: 2, SimCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	rec := httptest.NewRecorder()
	body := `{"tenant":"acme","workload":"wordcount","inputGB":2}`
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("tune status = %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health api.HealthResponse
	decodeStrict(t, rec.Body.Bytes(), &health)
	if health.Engine.Cache == nil {
		t.Fatalf("healthz engine stats missing cache: %s", rec.Body.String())
	}
	if health.Engine.Cache.Misses == 0 {
		t.Errorf("expected cache misses after tuning, got %+v", *health.Engine.Cache)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "simcache_misses_total") {
		t.Error("/metrics missing simcache counter families")
	}
}

func TestTuneEndToEnd(t *testing.T) {
	s := testServer(t)
	body := `{"tenant":"acme","workload":"wordcount","inputGB":4}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp api.TuneResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TunedRuntimeS <= 0 || resp.Cluster == "" || len(resp.Config) == 0 {
		t.Errorf("degenerate response: %+v", resp)
	}

	// History now has records for the tenant.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/history?tenant=acme&limit=5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("history status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "wordcount") {
		t.Error("history missing workload records")
	}

	// Workloads lists the pair.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	if !strings.Contains(rec.Body.String(), "acme") {
		t.Errorf("workloads = %s", rec.Body.String())
	}

	// Effectiveness report exists.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/effectiveness?tenant=acme&workload=wordcount", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("effectiveness status = %d: %s", rec.Code, rec.Body.String())
	}

	// The synchronous tune ran through the job engine, so it shows up in
	// the job listing as done.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("jobs status = %d", rec.Code)
	}
	var raw []json.RawMessage
	decodeStrict(t, rec.Body.Bytes(), &raw)
	var list []jobs.Job
	for _, r := range raw {
		list = append(list, decodeJob(t, r))
	}
	if len(list) != 1 || list[0].State != jobs.StateDone {
		t.Errorf("jobs = %+v", list)
	}
}

func TestJobLifecycle(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"acme","workload":"sort","inputGB":2}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
	}
	submitted := decodeJob(t, rec.Body.Bytes())
	if submitted.ID == "" || submitted.Tenant != "acme" {
		t.Fatalf("submitted job = %+v", submitted)
	}
	if submitted.State != jobs.StateQueued && submitted.State != jobs.StateRunning {
		t.Fatalf("fresh job state = %s", submitted.State)
	}

	final := awaitJob(t, s, submitted.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final = %+v", final)
	}
	resp := tuneResult(final)
	if resp.TunedRuntimeS <= 0 {
		t.Errorf("degenerate result: %+v", resp)
	}

	// Unknown jobs 404 with the error envelope.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-999999", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"not_found"`) {
		t.Errorf("unknown job body = %s", rec.Body.String())
	}
}

// TestConcurrentJobsMatchSequential is the load test of the redesign:
// 8 submissions across 4 distinct tenants on a 4-worker pool must (a)
// respect per-tenant FIFO, and (b) produce byte-identical results to the
// same submissions on a 1-worker (sequential) pool with the same seed.
// Run with -race to check the engine, store and service under contention.
func TestConcurrentJobsMatchSequential(t *testing.T) {
	submissions := []struct{ tenant, workload string }{
		{"alpha", "wordcount"},
		{"beta", "pagerank"},
		{"gamma", "kmeans"},
		{"delta", "bayes"},
		{"alpha", "wordcount"},
		{"beta", "pagerank"},
		{"gamma", "kmeans"},
		{"delta", "bayes"},
	}

	// run submits everything at once and returns each tenant's result
	// payloads in submission order.
	run := func(workers int) map[string][]string {
		// TransferThreshold > 1 disables cross-workload warm-starting:
		// transfer content depends on which other sessions have already
		// landed in the store, which is exactly the scheduling dependence
		// byte-identity must exclude (see docs/SERVICE.md).
		s, err := newServer(serverConfig{
			Seed: 7, Params: 8, CloudBudget: 5, DISCBudget: 8,
			Workers: workers, TransferThreshold: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var ids []string
		for _, sub := range submissions {
			body := fmt.Sprintf(`{"tenant":%q,"workload":%q,"inputGB":2}`, sub.tenant, sub.workload)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
			}
			jv := decodeJob(t, rec.Body.Bytes())
			ids = append(ids, jv.ID)
		}
		results := make(map[string][]string)
		finals := make(map[string]jobs.Job)
		for i, id := range ids {
			final := awaitJob(t, s, id)
			if final.State != jobs.StateDone {
				t.Fatalf("job %s (%s) failed: %s", id, submissions[i].tenant, final.Error)
			}
			payload, err := json.Marshal(tuneResult(final))
			if err != nil {
				t.Fatal(err)
			}
			results[final.Tenant] = append(results[final.Tenant], string(payload))
			finals[id] = final
		}
		// Per-tenant FIFO: on the engine's event clock, each job of a
		// tenant starts strictly after the tenant's previous job finished.
		prev := make(map[string]jobs.Job)
		for _, id := range ids {
			jv := finals[id]
			if p, ok := prev[jv.Tenant]; ok && jv.StartSeq <= p.FinishSeq {
				t.Errorf("tenant %s: job %s started (seq %d) before %s finished (seq %d)",
					jv.Tenant, jv.ID, jv.StartSeq, p.ID, p.FinishSeq)
			}
			prev[jv.Tenant] = jv
		}
		return results
	}

	concurrent := run(4)
	sequential := run(1)
	for tenant, want := range sequential {
		got := concurrent[tenant]
		if len(got) != len(want) {
			t.Fatalf("tenant %s: %d concurrent results vs %d sequential", tenant, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("tenant %s submission %d: concurrent result differs from sequential\nconcurrent: %s\nsequential: %s",
					tenant, i, got[i], want[i])
			}
		}
	}
}

func TestTuneValidation(t *testing.T) {
	s := testServer(t)
	tests := []struct {
		name string
		body string
		msg  string // the exact error message, when asserted
	}{
		{"bad json", `{nope`, ""},
		{"unknown workload", `{"tenant":"a","workload":"nope","inputGB":1}`,
			`unknown workload "nope" (known: bayes, join, kmeans, pagerank, sort, wordcount)`},
		{"no tenant", `{"workload":"wordcount","inputGB":1}`, ""},
		{"bad size", `{"tenant":"a","workload":"wordcount","inputGB":0}`, ""},
	}
	for _, path := range []string{"/v1/tune", "/v1/jobs"} {
		for _, tt := range tests {
			t.Run(path+" "+tt.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(tt.body)))
				if rec.Code != http.StatusBadRequest {
					t.Errorf("status = %d, want 400", rec.Code)
				}
				if !strings.Contains(rec.Body.String(), `"invalid_argument"`) {
					t.Errorf("body = %s, want error envelope", rec.Body.String())
				}
				if tt.msg != "" {
					var env api.ErrorEnvelope
					decodeStrict(t, rec.Body.Bytes(), &env)
					if env.Error.Message != tt.msg {
						t.Errorf("message = %q, want %q", env.Error.Message, tt.msg)
					}
				}
			})
		}
	}
	// Wrong method: the method-qualified routes answer 405.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tune", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/tune status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/jobs status = %d", rec.Code)
	}
}

// TestOversizedJobSpec sends a job spec that is valid JSON but larger
// than the body limit: it must be refused with the error envelope before
// anything is enqueued. The size check answers first: under the limit
// the same spec would get a 400 for its unknown "pad" field.
func TestOversizedJobSpec(t *testing.T) {
	s := testServer(t)
	body := `{"tenant":"acme","workload":"wordcount","inputGB":2,"pad":"` +
		strings.Repeat("x", maxJobSpecBytes) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/tune"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s status = %d, want 413", path, rec.Code)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "invalid_argument" {
			t.Errorf("POST %s body = %.200s, want error envelope", path, rec.Body.String())
		}
	}
	if n := len(s.engine.List()); n != 0 {
		t.Errorf("oversized specs enqueued %d jobs, want 0", n)
	}
}

// TestStrictJobSpec refuses a job spec with an unknown field (a typo
// that would silently tune without the option it meant) or with data
// after the JSON object, on both submission routes, before anything is
// enqueued.
func TestStrictJobSpec(t *testing.T) {
	s := testServer(t)
	const spec = `{"tenant":"acme","workload":"wordcount","inputGB":2`
	for _, tt := range []struct{ body, want string }{
		{spec + `,"prunning":true}`, `unknown field \"prunning\"`},
		{spec + `}{}`, "unexpected data after the JSON object"},
		{spec + `} x`, "unexpected data after the JSON object"},
	} {
		for _, path := range []string{"/v1/jobs", "/v1/tune"} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(tt.body)))
			var env api.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest ||
				env.Error.Code != "invalid_argument" || !strings.Contains(rec.Body.String(), tt.want) {
				t.Errorf("POST %s %s: status %d body %s, want 400 invalid_argument naming %s",
					path, tt.body, rec.Code, rec.Body.String(), tt.want)
			}
		}
	}
	if n := len(s.engine.List()); n != 0 {
		t.Errorf("refused specs enqueued %d jobs, want 0", n)
	}
}

func TestHistoryValidation(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/history?limit=zero", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit status = %d", rec.Code)
	}
}

func TestEffectivenessValidation(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/effectiveness", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing params status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/effectiveness?tenant=ghost&workload=wordcount", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d", rec.Code)
	}
}

// The surrogate option threads end to end: requests select a backend,
// the job record echoes the resolved choice (including the server-wide
// default when the request leaves it blank), the pipeline result reports
// what ran, and unknown names are rejected with the error envelope.
func TestJobSurrogateSelection(t *testing.T) {
	s, err := newServer(serverConfig{
		Seed: 1, Params: 10, CloudBudget: 5, DISCBudget: 8, Workers: 2,
		Surrogate: "rffgp",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	submit := func(body string) jobs.Job {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
		}
		jv := decodeJob(t, rec.Body.Bytes())
		if want := wantSurrogate(body); jv.Surrogate != want {
			t.Fatalf("submitted job surrogate = %q, want %q (body %s)", jv.Surrogate, want, body)
		}
		return jv
	}

	// Explicit request override beats the server default.
	jv := submit(`{"tenant":"acme","workload":"sort","inputGB":2,"surrogate":"forest"}`)
	final := awaitJob(t, s, jv.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final = %+v", final)
	}
	resp := tuneResult(final)
	if resp.Surrogate != "forest" {
		t.Errorf("result surrogate = %q, want forest", resp.Surrogate)
	}

	// Blank request resolves to the server-wide default.
	jv = submit(`{"tenant":"acme","workload":"sort","inputGB":2}`)
	final = awaitJob(t, s, jv.ID)
	resp = tuneResult(final)
	if resp.Surrogate != "rffgp" {
		t.Errorf("default result surrogate = %q, want server default rffgp", resp.Surrogate)
	}

	// Unknown names fail fast with the uniform envelope and accepted list.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"acme","workload":"sort","inputGB":2,"surrogate":"xgboost"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad surrogate status = %d: %s", rec.Code, rec.Body.String())
	}
	for _, want := range []string{`"invalid_argument"`, "xgboost", "gp, rffgp, forest"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("bad surrogate body missing %q: %s", want, rec.Body.String())
		}
	}
}

// wantSurrogate extracts the expected resolved backend for a request
// body submitted to the rffgp-default test server.
func wantSurrogate(body string) string {
	var req api.TuneRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return ""
	}
	if req.Surrogate != "" {
		return req.Surrogate
	}
	return "rffgp"
}

// The pruning option threads end to end: an opting-in request is echoed
// on the job record and the pipeline result, the default stays off, and
// a server started with -prune applies it to every submission.
func TestJobPruningSelection(t *testing.T) {
	s := testServer(t)

	submit := func(srv *server, body string) (jobs.Job, bool) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
		}
		jv := decodeJob(t, rec.Body.Bytes())
		return jv, jv.Pruning
	}

	// Request opt-in: echoed on the job record and the result payload.
	jv, pruning := submit(s, `{"tenant":"acme","workload":"sort","inputGB":2,"pruning":true}`)
	if !pruning {
		t.Error("job record does not echo pruning opt-in")
	}
	final := awaitJob(t, s, jv.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final = %+v", final)
	}
	resp := tuneResult(final)
	if !resp.Pruning {
		t.Errorf("result pruning = false, want true: %+v", resp)
	}
	if resp.TotalDims != 10 {
		t.Errorf("result totalDims = %d, want 10 (params 10)", resp.TotalDims)
	}
	if resp.ActiveDims < 1 || resp.ActiveDims > resp.TotalDims {
		t.Errorf("result activeDims = %d out of range (total %d)", resp.ActiveDims, resp.TotalDims)
	}

	// Default stays off: no pruning field on the job or the result.
	jv, pruning = submit(s, `{"tenant":"acme","workload":"sort","inputGB":2}`)
	if pruning {
		t.Error("default submission reports pruning")
	}
	awaitJob(t, s, jv.ID)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+jv.ID, nil))
	if strings.Contains(rec.Body.String(), `"pruning"`) {
		t.Errorf("default job or result carries a pruning field: %s", rec.Body.String())
	}

	// Server-wide -prune applies to submissions that do not mention it.
	sp, err := newServer(serverConfig{Seed: 1, Params: 10, CloudBudget: 6, DISCBudget: 10, Workers: 2, Pruning: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	jv, pruning = submit(sp, `{"tenant":"acme","workload":"sort","inputGB":2}`)
	if !pruning {
		t.Error("server-wide pruning default not echoed on the job record")
	}
	final = awaitJob(t, sp, jv.ID)
	if resp = tuneResult(final); !resp.Pruning {
		t.Errorf("server-wide pruning default missing from result: %+v", resp)
	}
}
