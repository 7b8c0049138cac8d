package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/storage"
)

// Client calls a tuneserve instance. Every method turns a response with
// an unexpected status into an *Error.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8642".
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the server at baseURL using
// http.DefaultClient.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: http.DefaultClient}
}

// SubmitJob enqueues a tuning job (POST /v1/jobs) and returns its first
// snapshot.
func (c *Client) SubmitJob(ctx context.Context, req TuneRequest) (job jobs.Job, err error) {
	job.Result = new(TuneResponse)
	err = c.do(ctx, http.MethodPost, "/v1/jobs", req, http.StatusAccepted, &job)
	return job, err
}

// Job returns a job's snapshot (GET /v1/jobs/{id}). Its Result is a
// *TuneResponse, zero until the job is done.
func (c *Client) Job(ctx context.Context, id string) (job jobs.Job, err error) {
	job.Result = new(TuneResponse)
	err = c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, http.StatusOK, &job)
	return job, err
}

// Explain returns the tuner-introspection summary of one job
// (GET /v1/jobs/{id}/explain).
func (c *Client) Explain(ctx context.Context, id string) (doc ExplainResponse, err error) {
	err = c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/explain", nil, http.StatusOK, &doc)
	return doc, err
}

// Query runs a range query over the server's telemetry store
// (GET /v1/query) at one point per step.
func (c *Client) Query(ctx context.Context, metric string, from, to time.Time, step time.Duration) (qr QueryResponse, err error) {
	path := fmt.Sprintf("/v1/query?metric=%s&from=%d&to=%d&step=%s", url.QueryEscape(metric), from.Unix(), to.Unix(), step)
	err = c.do(ctx, http.MethodGet, path, nil, http.StatusOK, &qr)
	return qr, err
}

// Alerts returns every alert rule's lifecycle state (GET /v1/alerts).
func (c *Client) Alerts(ctx context.Context) (ar AlertsResponse, err error) {
	err = c.do(ctx, http.MethodGet, "/v1/alerts", nil, http.StatusOK, &ar)
	return ar, err
}

// Storage returns the persistence tier's stats (GET /v1/admin/storage).
func (c *Client) Storage(ctx context.Context) (st storage.Stats, err error) {
	err = c.do(ctx, http.MethodGet, "/v1/admin/storage", nil, http.StatusOK, &st)
	return st, err
}

// Compact forces a storage compaction (POST /v1/admin/compact) and
// returns the stats after it.
func (c *Client) Compact(ctx context.Context) (st storage.Stats, err error) {
	err = c.do(ctx, http.MethodPost, "/v1/admin/compact", nil, http.StatusOK, &st)
	return st, err
}

// Metrics returns the JSON metrics exposition
// (GET /metrics?format=json), the one carrying sketch quantiles.
func (c *Client) Metrics(ctx context.Context) (snap obs.Snapshot, err error) {
	err = c.do(ctx, http.MethodGet, "/metrics?format=json", nil, http.StatusOK, &snap)
	return snap, err
}

// JobEvents opens a job's SSE telemetry stream
// (GET /v1/jobs/{id}/events) replaying the events after sequence number
// from. The caller reads the frames and closes the stream.
func (c *Client) JobEvents(ctx context.Context, id string, from uint64) (io.ReadCloser, error) {
	var h http.Header
	if from > 0 {
		// Belt and braces: send the standard SSE resumption header too,
		// for proxies that strip query strings.
		h = http.Header{"Last-Event-ID": {strconv.FormatUint(from, 10)}}
	}
	path := fmt.Sprintf("/v1/jobs/%s/events?from=%d", url.PathEscape(id), from)
	resp, err := c.send(ctx, http.MethodGet, path, nil, h, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// do sends one request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body any, wantStatus int, out any) error {
	resp, err := c.send(ctx, method, path, body, nil, wantStatus)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// send issues one request and returns the response with its body open,
// or an *Error when the status is not wantStatus.
func (c *Client) send(ctx context.Context, method, path string, body any, h http.Header, wantStatus int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range h {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil || resp.StatusCode == wantStatus {
		return resp, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10)) // an unreadable body leaves just the status
	e := &Error{Method: method, Path: path, Status: resp.StatusCode}
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
		e.Code, e.Message = env.Error.Code, env.Error.Message
	} else {
		e.Message = string(bytes.TrimSpace(raw))
	}
	return nil, e
}
