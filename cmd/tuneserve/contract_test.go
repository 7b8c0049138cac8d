package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/storage"
)

// contractServer runs the real handler on the memory backend with one
// job driven to done and two telemetry samples taken.
func contractServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	s := testServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	job, err := api.NewClient(ts.URL).SubmitJob(context.Background(),
		api.TuneRequest{Tenant: "acme", Workload: "wordcount", InputGB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if jv := awaitJob(t, s, job.ID); jv.State != jobs.StateDone {
		t.Fatalf("job %s ended %s: %s", job.ID, jv.State, jv.Error)
	}
	now := time.Now()
	s.telemetry.Poll(now.Add(-2 * time.Second))
	s.telemetry.Poll(now.Add(-time.Second))
	return ts, job.ID
}

// TestWireContract decodes the live server's body of every route tunectl
// reads into its shared type with DisallowUnknownFields: a field the
// server sends that the type does not declare fails the test.
func TestWireContract(t *testing.T) {
	ts, id := contractServer(t)
	routes := []struct {
		method, path string
		status       int
		into         any
	}{
		{"GET", "/v1/jobs/" + id, http.StatusOK, &jobs.Job{Result: new(api.TuneResponse)}},
		{"GET", "/v1/jobs/" + id + "/explain", http.StatusOK, new(api.ExplainResponse)},
		{"GET", "/v1/query?metric=jobs_queue_depth", http.StatusOK, new(api.QueryResponse)},
		{"GET", "/v1/alerts", http.StatusOK, new(api.AlertsResponse)},
		{"GET", "/v1/admin/storage", http.StatusOK, new(storage.Stats)},
		{"POST", "/v1/admin/compact", http.StatusOK, new(storage.Stats)},
		{"GET", "/metrics?format=json", http.StatusOK, new(obs.Snapshot)},
		{"GET", "/v1/jobs/job-999999", http.StatusNotFound, new(api.ErrorEnvelope)},
	}
	for _, rt := range routes {
		t.Run(rt.method+" "+rt.path, func(t *testing.T) {
			req, err := http.NewRequest(rt.method, ts.URL+rt.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != rt.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, rt.status, raw)
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(rt.into); err != nil {
				t.Fatalf("%v in %.300s", err, raw)
			}
		})
	}
}

// TestClientAgainstServer drives every api.Client method against the
// real handler.
func TestClientAgainstServer(t *testing.T) {
	ts, id := contractServer(t)
	c := api.NewClient(ts.URL)
	ctx := context.Background()

	job, err := c.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := job.Result.(*api.TuneResponse); job.State != jobs.StateDone || res == nil || res.TunedRuntimeS <= 0 || res.Cluster == "" {
		t.Errorf("job = %+v, result %+v", job, job.Result)
	}
	doc, err := c.Explain(ctx, id)
	if err != nil || doc.Job != id || doc.Events == 0 || len(doc.Phases) == 0 {
		t.Errorf("explain = %+v, %v", doc, err)
	}
	now := time.Now()
	qr, err := c.Query(ctx, "jobs_queue_depth", now.Add(-time.Minute), now, time.Second)
	if err != nil || qr.Metric != "jobs_queue_depth" || len(qr.Series) == 0 {
		t.Errorf("query = %+v, %v", qr, err)
	}
	ar, err := c.Alerts(ctx)
	if err != nil || len(ar.Alerts) == 0 {
		t.Errorf("alerts = %+v, %v", ar, err)
	}
	for name, call := range map[string]func(context.Context) (storage.Stats, error){"storage": c.Storage, "compact": c.Compact} {
		if st, err := call(ctx); err != nil || st.Backend != "memory" {
			t.Errorf("%s = %+v, %v", name, st, err)
		}
	}
	snap, err := c.Metrics(ctx)
	if err != nil || len(snap.Families) == 0 {
		t.Errorf("metrics: %d families, %v", len(snap.Families), err)
	}

	// The job is done, so its stream replays the retained events and ends.
	stream, err := c.JobEvents(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frames int
	for sc := bufio.NewScanner(stream); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "data: ") {
			frames++
		}
	}
	stream.Close()
	if frames == 0 {
		t.Error("job event stream replayed no events")
	}

	// Every error path reports the same *api.Error.
	var apiErr *api.Error
	if _, err := c.Job(ctx, "job-999999"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Errorf("unknown job: %v", err)
	}
	if _, err := c.JobEvents(ctx, "job-999999", 0); !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
		t.Errorf("unknown job stream: %v", err)
	}
	if _, err := c.SubmitJob(ctx, api.TuneRequest{Tenant: "acme", Workload: "nope", InputGB: 1}); !errors.As(err, &apiErr) || apiErr.Code != "invalid_argument" {
		t.Errorf("bad submission: %v", err)
	}
}
