package main

import (
	"context"
	"net/http"
	"strconv"

	"seamlesstune/internal/obs"
)

// sseRetryMS is the reconnect delay hint sent at the top of every SSE
// stream; together with Last-Event-ID resumption it makes EventSource
// reconnects gapless as long as the ring still holds the missed events.
const sseRetryMS = 1000

// parseFromSeq extracts the replay cursor for an SSE request: the ?from=
// query parameter wins, then the Last-Event-ID header an EventSource
// sends on reconnect. Events with Seq > from are (re)delivered.
func parseFromSeq(r *http.Request) uint64 {
	raw := r.URL.Query().Get("from")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	if raw == "" {
		return 0
	}
	from, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return from
}

// sseWriter frames events as Server-Sent Events. The id: line carries the
// event's sequence number so clients resume with Last-Event-ID; event:
// carries the type for addEventListener dispatch; data: is the JSONL
// encoding, one line, so every consumer (browser, tunectl, curl) sees the
// same schema.
type sseWriter struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	buf []byte
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	// ResponseController reaches Flush through the metrics middleware's
	// statusWriter via its Unwrap.
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	sw := &sseWriter{w: w, rc: rc, buf: make([]byte, 0, 512)}
	sw.buf = append(sw.buf[:0], "retry: "...)
	sw.buf = strconv.AppendInt(sw.buf, sseRetryMS, 10)
	sw.buf = append(sw.buf, '\n', '\n')
	if _, err := w.Write(sw.buf); err != nil {
		return nil, false
	}
	if err := sw.rc.Flush(); err != nil {
		return nil, false
	}
	return sw, true
}

func (sw *sseWriter) send(e obs.Event) error {
	sw.buf = append(sw.buf[:0], "id: "...)
	sw.buf = strconv.AppendUint(sw.buf, e.Seq, 10)
	sw.buf = append(sw.buf, "\nevent: "...)
	sw.buf = append(sw.buf, string(e.Type)...)
	sw.buf = append(sw.buf, "\ndata: "...)
	sw.buf = e.AppendJSONL(sw.buf)
	sw.buf = append(sw.buf, '\n', '\n')
	if _, err := sw.w.Write(sw.buf); err != nil {
		return err
	}
	return sw.rc.Flush()
}

// handleJobEvents streams one job's telemetry as SSE: first the retained
// events replayed from the ring (after ?from= / Last-Event-ID), then the
// live tail. The stream ends when the job reaches a terminal state (after
// draining what the session already published), the client disconnects,
// or the server shuts down.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.engine.Get(id); !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", id)
		return
	}
	s.streamEvents(w, r, id)
}

// handleEvents streams the server-wide telemetry feed (every session) as
// SSE — what the dashboard consumes. Runs until the client disconnects or
// the server shuts down.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.streamEvents(w, r, "")
}

// streamEvents is the shared SSE loop. session filters the stream to one
// job ID; empty streams everything. The subscription is registered
// atomically with the replay snapshot, so replay + tail has no gap; a
// slow client drops events (visible in /healthz events.dropped) rather
// than stalling tuning.
func (s *server) streamEvents(w http.ResponseWriter, r *http.Request, session string) {
	replay, sub := s.events.SubscribeFrom(parseFromSeq(r), 1024)
	defer sub.Close()

	// The stream is already committed once newSSEWriter writes the
	// preamble; a writer that cannot stream just ends the response.
	sw, ok := newSSEWriter(w)
	if !ok {
		return
	}
	emit := func(e obs.Event) bool {
		if session != "" && e.Session != session {
			return true
		}
		return sw.send(e) == nil
	}
	for _, e := range replay {
		if !emit(e) {
			return
		}
	}

	// A job-scoped stream ends when the engine reports the job terminal:
	// the session has published everything by then (session_end precedes
	// the task's return), so drain what is buffered and end the stream so
	// clients like `tunectl events` exit cleanly.
	var finished chan struct{}
	if session != "" {
		ctx, cancel := context.WithCancel(r.Context())
		finished = make(chan struct{})
		go func() {
			defer close(finished)
			s.engine.Wait(ctx, session)
		}()
		defer func() {
			cancel()
			<-finished
		}()
	}
	for {
		select {
		case e, open := <-sub.C():
			if !open {
				return // server shutting down
			}
			if !emit(e) {
				return
			}
		case <-r.Context().Done():
			return
		case <-finished:
			for {
				select {
				case e, open := <-sub.C():
					if !open {
						return
					}
					if !emit(e) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// handleTenantUsage serves one tenant's accrued accounting.
func (s *server) handleTenantUsage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	u, ok := s.engine.TenantUsage(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no usage recorded for tenant %q", id)
		return
	}
	writeJSON(w, http.StatusOK, u)
}

// handleUsage serves every tenant's accounting, sorted by tenant.
func (s *server) handleUsage(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Usage())
}

// handleDashboard serves the live dashboard: a single self-contained HTML
// page (no external assets, no build step) that opens an EventSource on
// /v1/events and renders convergence, spend, and SLO burn-down per
// session as the stream arrives.
func (s *server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}
