package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestClientErrorText pins the one error format every client call
// reports: envelope responses name their code and message, anything
// else carries the trimmed body.
func TestClientErrorText(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/alerts":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such route"}}`)
		default:
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, "upstream gone\n")
		}
	}))
	defer ts.Close()
	c := NewClient(ts.URL + "/")
	ctx := context.Background()

	_, err := c.Alerts(ctx)
	if want := "GET /v1/alerts: 404 Not Found: not_found: no such route"; err == nil || err.Error() != want {
		t.Errorf("envelope error = %v, want %q", err, want)
	}
	_, err = c.Compact(ctx)
	if want := "POST /v1/admin/compact: 502 Bad Gateway: upstream gone"; err == nil || err.Error() != want {
		t.Errorf("plain error = %v, want %q", err, want)
	}
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway || apiErr.Code != "" {
		t.Errorf("errors.As(%v) = %+v", err, apiErr)
	}
}

// TestJobEventsResumes checks the stream request carries the replay
// cursor as ?from= and, once past zero, as Last-Event-ID.
func TestJobEventsResumes(t *testing.T) {
	var gotFrom, gotHeader []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotFrom = append(gotFrom, r.URL.Query().Get("from"))
		gotHeader = append(gotHeader, r.Header.Get("Last-Event-ID"))
		fmt.Fprint(w, "data: {}\n\n")
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	for _, from := range []uint64{0, 7} {
		stream, err := c.JobEvents(context.Background(), "job-000001", from)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, stream)
		stream.Close()
	}
	if fmt.Sprint(gotFrom) != "[0 7]" || fmt.Sprint(gotHeader) != "[ 7]" {
		t.Errorf("from = %q, Last-Event-ID = %q", gotFrom, gotHeader)
	}
}
