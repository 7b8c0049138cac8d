package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/history"
	"seamlesstune/internal/storage"
)

// A WAL-backed server persists tuning history across restarts without a
// snapshot file: the second server replays the log and serves the first
// server's tenants.
func TestWALPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := serverConfig{Seed: 1, Params: 8, CloudBudget: 5, DISCBudget: 8, Workers: 2, DataDir: dir}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune",
		strings.NewReader(`{"tenant":"acme","workload":"wordcount","inputGB":2}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("tune status = %d: %s", rec.Code, rec.Body.String())
	}
	// /healthz surfaces the backend and its append counters.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health api.HealthResponse
	decodeStrict(t, rec.Body.Bytes(), &health)
	if health.Storage.Backend != "wal" {
		t.Fatalf("healthz backend = %q, want wal", health.Storage.Backend)
	}
	if health.Storage.Records == 0 {
		t.Errorf("healthz shows no persisted records: %+v", health.Storage)
	}
	s.Close()

	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec = httptest.NewRecorder()
	s2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	if !strings.Contains(rec.Body.String(), "acme") {
		t.Errorf("restarted server lost history: %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/admin/storage", nil))
	var st storage.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RecoveredRecords == 0 {
		t.Errorf("restarted server reports no recovered records: %+v", st)
	}
}

// POST /v1/admin/compact folds sealed segments into a snapshot record
// and reports the post-compaction stats.
func TestAdminCompact(t *testing.T) {
	cfg := serverConfig{Seed: 1, Params: 8, CloudBudget: 5, DISCBudget: 8, Workers: 2, DataDir: t.TempDir()}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune",
		strings.NewReader(`{"tenant":"acme","workload":"sort","inputGB":1}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("tune status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/compact", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("compact status = %d: %s", rec.Code, rec.Body.String())
	}
	var st storage.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Compactions == 0 {
		t.Errorf("compact did not run: %+v", st)
	}
	if st.LastCompactionUnix == 0 {
		t.Errorf("compaction timestamp missing: %+v", st)
	}
}

// A saturated storage backend sheds job submissions with 429 and a
// Retry-After header, and /healthz reflects the backpressure state.
func TestSubmitShedsUnderBackpressure(t *testing.T) {
	s := testServer(t)
	s.engine.SetBackpressure(func() (bool, time.Duration) { return true, 3 * time.Second })

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"acme","workload":"wordcount","inputGB":2}`)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submit status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"storage_backpressure"`) {
		t.Errorf("body = %s", rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want %q", got, "3")
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health api.HealthResponse
	decodeStrict(t, rec.Body.Bytes(), &health)
	if !health.Engine.Backpressure || health.Engine.Shed != 1 {
		t.Errorf("healthz backpressure = %+v, want shed=1 backpressure=true", health.Engine)
	}

	// Clearing the probe restores admission.
	s.engine.SetBackpressure(nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"acme","workload":"wordcount","inputGB":2}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit after clearing = %d: %s", rec.Code, rec.Body.String())
	}
	jv := decodeJob(t, rec.Body.Bytes())
	awaitJob(t, s, jv.ID)
}

// writeStateFile tunes one job for tenant on a memory-backed server and
// writes the resulting history as a JSON array — the file format the
// retired snapshot backend kept — returning the records it wrote.
func writeStateFile(t *testing.T, path, tenant string) []history.Record {
	t.Helper()
	s, err := newServer(serverConfig{Seed: 1, Params: 8, CloudBudget: 5, DISCBudget: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune",
		strings.NewReader(`{"tenant":"`+tenant+`","workload":"wordcount","inputGB":2}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("tune status = %d: %s", rec.Code, rec.Body.String())
	}
	raw, err := json.Marshal(s.svc.Store().Query(history.Filter{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var want []history.Record
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// storeRecords returns everything a server's history store holds.
func storeRecords(s *server) []history.Record {
	return s.svc.Store().Query(history.Filter{})
}

// TestStatePersistence: -state imports a history file into an empty WAL,
// and the imported history survives a restart without -state.
func TestStatePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	want := writeStateFile(t, path, "acme")
	cfg := serverConfig{Seed: 2, Params: 8, CloudBudget: 5, DISCBudget: 8, Workers: 1,
		DataDir: filepath.Join(dir, "wal"), StatePath: path}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := storeRecords(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported %d records, want the file's %d", len(got), len(want))
	}
	s.Close()

	cfg.StatePath = ""
	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := storeRecords(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart without -state recovered %d records, want %d", len(got), len(want))
	}
}

// A WAL that already holds history is never overwritten by -state: a
// restart with a different file keeps the WAL's records.
func TestStateImportSkipsNonEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	want := writeStateFile(t, first, "acme")
	cfg := serverConfig{Seed: 1, Params: 8, CloudBudget: 5, DISCBudget: 8, Workers: 1,
		DataDir: filepath.Join(dir, "wal"), StatePath: first}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	cfg.StatePath = filepath.Join(dir, "second.json")
	writeStateFile(t, cfg.StatePath, "beta")
	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := storeRecords(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("non-empty WAL holds %d records after a second -state, want the first import's %d", len(got), len(want))
	}
}

// -state edge cases: a missing file imports nothing, a malformed one
// fails startup, and -state without -data-dir or the retired snapshot
// backend fail with an error pointing at -data-dir.
func TestStateImportErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(serverConfig{Seed: 1, CloudBudget: 5, DISCBudget: 8, Workers: 1,
		DataDir: filepath.Join(dir, "wal"), StatePath: filepath.Join(dir, "missing.json")})
	if err != nil {
		t.Fatalf("missing -state file: %v", err)
	}
	if n := len(storeRecords(s)); n != 0 {
		t.Errorf("missing -state file imported %d records", n)
	}
	s.Close()

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(serverConfig{Seed: 1, CloudBudget: 5, DISCBudget: 8, Workers: 1,
		DataDir: filepath.Join(dir, "wal2"), StatePath: corrupt}); err == nil {
		t.Error("corrupt -state file accepted")
	}

	for name, cfg := range map[string]serverConfig{
		"-state without -data-dir": {Workers: 1, StatePath: corrupt},
		"-state with memory":       {Workers: 1, StatePath: corrupt, DataDir: dir, Backend: "memory"},
		"-backend snapshot":        {Workers: 1, Backend: "snapshot"},
	} {
		if _, err := newServer(cfg); err == nil || !strings.Contains(err.Error(), "-data-dir") {
			t.Errorf("%s: err = %v, want one naming -data-dir", name, err)
		}
	}
}

// The explicit -backend flag wins over path inference, and an unknown
// backend is rejected at startup.
func TestBackendSelection(t *testing.T) {
	s, err := newServer(serverConfig{Seed: 1, Params: 8, CloudBudget: 5, DISCBudget: 8, Workers: 1, Backend: "memory"})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/admin/storage", nil))
	var st storage.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != "memory" {
		t.Errorf("backend = %q, want memory", st.Backend)
	}
	s.Close()

	if _, err := newServer(serverConfig{Backend: "etcd"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// WAL fsync and append metric families surface in /metrics once a WAL
// backend has traffic.
func TestWALMetricsExposed(t *testing.T) {
	cfg := serverConfig{Seed: 1, Params: 8, CloudBudget: 5, DISCBudget: 8, Workers: 1, DataDir: t.TempDir()}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune",
		strings.NewReader(`{"tenant":"acme","workload":"wordcount","inputGB":1}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("tune status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, family := range []string{"wal_appends_total", "wal_fsync_seconds", "storage_records_total"} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}
