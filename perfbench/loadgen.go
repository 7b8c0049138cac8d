package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// counts tallies one phase's requests.
type counts struct{ Sent, OK, Failed int }

func (c *counts) add(ok bool) {
	c.Sent++
	if ok {
		c.OK++
	} else {
		c.Failed++
	}
}

// jobStats accumulates the closed loop's outcome.
type jobStats struct {
	Attempted int
	// Refused counts 429s; Failed jobs that ended failed for another reason
	// than a tuning verdict; CheckFailed done jobs whose result failed an
	// output check. Unconverged counts jobs the service answered with the
	// verdict that no trial of their budget succeeded, about one job in a
	// hundred and a different number on every run; it is reported as
	// jobs_converged_pct.
	Refused, Failed, CheckFailed, Unconverged int
	// DropsConfirmed counts jobs whose session_end the stream lost and a
	// GET confirmed.
	DropsConfirmed int
	// Completed counts jobs finished inside the measured window; the
	// per-job samples below cover exactly those, and LastAt is when the
	// last of them finished.
	Completed int
	LastAt    time.Time
	LatencyS  []float64
	SubmitMS  []float64
	// Improvement and CostUSD are grouped by (workload, size) class.
	Improvement  map[sized][]float64
	CostUSD      map[sized][]float64
	Drained      int // finished after the window, checked but not timed
	Notes        []string
	phaseSubmit  counts
	phaseResults counts
}

// failures counts the jobs whose request failed: refused, ended failed
// for another reason than a tuning verdict, or failing an output check.
// An unconverged job is an answer, not a failed request; it counts in
// convergedPct instead.
func (s *jobStats) failures() int { return s.Refused + s.Failed + s.CheckFailed }

// convergedPct is the share, in percent, of the jobs that ended that did
// not end with a tuning verdict.
func (s *jobStats) convergedPct() float64 {
	ended := s.Completed + s.Drained + s.Failed + s.CheckFailed + s.Unconverged
	return 100 * float64(ended-s.Unconverged) / float64(max(1, ended))
}

// tuningVerdicts are the errors with which the service ends a job whose
// whole budget found no working configuration.
var tuningVerdicts = []string{"no cloud configuration succeeded", "no DISC configuration succeeded"}

func isTuningVerdict(msg string) bool {
	for _, v := range tuningVerdicts {
		if strings.Contains(msg, v) {
			return true
		}
	}
	return false
}

// note keeps the first few failure messages for the report.
func (s *jobStats) note(msg string) {
	if len(s.Notes) < 5 {
		s.Notes = append(s.Notes, msg)
	}
}

// readStats accumulates the open-loop read mix.
type readStats struct {
	mu sync.Mutex
	// LatencyMS is timed from each read's due time.
	LatencyMS []float64
	// RouteMS is per-route service time, timed from the send.
	RouteMS map[string][]float64
	// LateMS is how far each send trailed its due time; OwnLagMS the part
	// of that not spent waiting for the previous read (the generator's own
	// delay).
	LateMS, OwnLagMS []float64
	Failed           int
	phase            counts
}

// httpRun drives one workload against tuneserve processes.
type httpRun struct {
	def     workloadDef
	seed    int64
	bin     string
	work    string
	prefill string // ops-reads: the prefilled data dir
	records int    // ops-reads: records in the prefill
	// connA carries the server-wide event stream, connB every other
	// request.
	connA, connB *http.Client
	setupCounts  counts
	// checkProblems are set-up output checks that failed.
	checkProblems []string
}

// setup starts a server as the workload configures it and runs the
// canary job alone on it, returning the running server, its event stream,
// and the exec-to-canary-result time.
func (h *httpRun) setup(rep int) (*serverProc, *eventStream, float64, string, error) {
	var args []string
	switch h.def.backend {
	case "memory":
		args = []string{"-backend", "memory"}
	case "wal":
		args = []string{"-data-dir", filepath.Join(h.work, fmt.Sprintf("data-%d", rep))}
	case "prefilled":
		dir := filepath.Join(h.work, fmt.Sprintf("data-%d", rep))
		if err := copyDir(h.prefill, dir); err != nil {
			return nil, nil, 0, "", err
		}
		args = []string{"-data-dir", dir}
	}
	start := time.Now()
	srv, err := startServer(h.bin, filepath.Join(h.work, fmt.Sprintf("server-%d.log", rep)), args, h.connB)
	if err != nil {
		return nil, nil, 0, "", err
	}
	fail := func(err error) (*serverProc, *eventStream, float64, string, error) {
		srv.stop()
		h.connB.CloseIdleConnections()
		return nil, nil, 0, "", err
	}
	es, err := openEvents(h.connA, srv.base)
	if err != nil {
		return fail(err)
	}
	id, err := submitJob(h.connB, srv.base, canarySpec)
	h.setupCounts.add(err == nil)
	if err != nil {
		es.close()
		return fail(fmt.Errorf("canary: %w", err))
	}
	if err := awaitEnd(es, id); err != nil {
		es.close()
		return fail(fmt.Errorf("canary: %w", err))
	}
	v, err := awaitTerminal(h.connB, srv.base, id)
	h.setupCounts.add(err == nil)
	if err != nil {
		es.close()
		return fail(fmt.Errorf("canary: %w", err))
	}
	setupS := time.Since(start).Seconds()
	if err := checkJob(v, h.def.golden); err != nil {
		h.checkProblems = append(h.checkProblems, fmt.Sprintf("set-up %d canary: %v", rep, err))
	}
	if h.def.backend == "prefilled" {
		var st struct {
			RecoveredRecords int `json:"recoveredRecords"`
		}
		if err := getJSON(h.connB, srv.base+"/v1/admin/storage", &st); err != nil {
			es.close()
			return fail(err)
		}
		if st.RecoveredRecords != h.records {
			h.checkProblems = append(h.checkProblems,
				fmt.Sprintf("set-up %d recovered %d records, prefilled %d", rep, st.RecoveredRecords, h.records))
		}
	}
	return srv, es, setupS, id, nil
}

// awaitEnd waits for the job's session_end on the stream.
func awaitEnd(es *eventStream, id string) error {
	timeout := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-es.C:
			if !ok {
				return fmt.Errorf("event stream closed: %v", es.err)
			}
			if ev.Gap || ev.Session == id {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("no session_end for %s in 60s", id)
		}
	}
}

// awaitTerminal fetches a job until it is terminal: session_end precedes
// the task's return, so the first GET may still see it running.
func awaitTerminal(c *http.Client, base, id string) (jobView, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := getJob(c, base, id)
		if err != nil || v.terminal() {
			return v, err
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s still %s after session_end", id, v.State)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// checkJob parses a terminal job's result and applies the output checks.
func checkJob(v jobView, golden bool) error {
	if v.State != "done" {
		return fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
	}
	var r tuneResult
	if err := json.Unmarshal(v.Result, &r); err != nil {
		return fmt.Errorf("job %s result: %w", v.ID, err)
	}
	if err := checkResult(r); err != nil {
		return fmt.Errorf("job %s: %w", v.ID, err)
	}
	if golden {
		return matchGolden(r)
	}
	return nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// measure runs the closed job loop and the open-loop reads against srv
// for dur, then lets the outstanding jobs finish. The reads that address
// a job address the canary, so their payloads are the same on every run.
func (h *httpRun) measure(srv *serverProc, es *eventStream, canaryID string, dur time.Duration) (*jobStats, *readStats, time.Time, error) {
	js := &jobStats{Improvement: make(map[sized][]float64), CostUSD: make(map[sized][]float64)}
	rs := &readStats{RouteMS: make(map[string][]float64)}
	stream := newSpecStream(h.seed, h.def.mix, h.def.tenants, "t")

	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.readLoop(srv.base, start, deadline, canaryID, rs)
	}()
	err := h.jobLoop(srv.base, es, stream, deadline, js)
	wg.Wait()
	return js, rs, start, err
}

type inflight struct {
	sent  time.Time
	class sized
}

func (h *httpRun) jobLoop(base string, es *eventStream, stream *specStream, deadline time.Time, js *jobStats) error {
	out := make(map[string]inflight)
	// unconfirmed holds the jobs outstanding when the stream showed a gap:
	// any of their session_ends may be lost, so each is fetched until it
	// reads terminal, which it does only after its task returns, a little
	// after its session_end.
	unconfirmed := make(map[string]bool)
	fill := func() error {
		for len(out) < h.def.outstanding && time.Now().Before(deadline) {
			spec := stream.next()
			t0 := time.Now()
			id, err := submitJob(h.connB, base, spec)
			js.SubmitMS = append(js.SubmitMS, ms(time.Since(t0)))
			js.Attempted++
			js.phaseSubmit.add(err == nil)
			if errors.Is(err, errRefused) {
				js.Refused++
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if err != nil {
				return err
			}
			out[id] = inflight{sent: t0, class: sized{spec.Workload, spec.InputGB}}
		}
		return nil
	}
	complete := func(id string, at time.Time) error {
		f := out[id]
		delete(out, id)
		delete(unconfirmed, id)
		v, err := awaitTerminal(h.connB, base, id)
		js.phaseResults.add(err == nil)
		if err != nil {
			return err
		}
		if v.State != "done" {
			if isTuningVerdict(v.Error) {
				js.Unconverged++
			} else {
				js.Failed++
			}
			js.note(fmt.Sprintf("job %s %s: %s", id, v.State, v.Error))
			return nil
		}
		var r tuneResult
		err = json.Unmarshal(v.Result, &r)
		if err == nil {
			err = checkResult(r)
		}
		if err != nil {
			js.CheckFailed++
			js.note(fmt.Sprintf("job %s: %v", id, err))
			return nil
		}
		if !at.Before(deadline) {
			js.Drained++
			return nil
		}
		js.Completed++
		js.LastAt = at
		js.LatencyS = append(js.LatencyS, at.Sub(f.sent).Seconds())
		js.Improvement[f.class] = append(js.Improvement[f.class], r.ImprovementPct)
		js.CostUSD[f.class] = append(js.CostUSD[f.class], r.TuningCostUSD)
		return nil
	}
	// confirm fetches each unconfirmed job and completes the terminal ones.
	confirm := func() error {
		for id := range unconfirmed {
			v, err := getJob(h.connB, base, id)
			js.phaseResults.add(err == nil)
			if err != nil {
				return err
			}
			if v.terminal() {
				js.DropsConfirmed++
				if err := complete(id, time.Now()); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := fill(); err != nil {
		return err
	}
	for len(out) > 0 {
		var poll <-chan time.Time
		if len(unconfirmed) > 0 {
			poll = time.After(time.Millisecond)
		}
		var err error
		select {
		case ev, ok := <-es.C:
			if !ok {
				return fmt.Errorf("event stream closed: %v", es.err)
			}
			if ev.Gap {
				// The server dropped events for this subscriber.
				for id := range out {
					unconfirmed[id] = true
				}
				err = confirm()
			} else if _, ok := out[ev.Session]; ok {
				err = complete(ev.Session, ev.At)
			}
		case <-poll:
			err = confirm()
		case <-time.After(stallTimeout):
			return fmt.Errorf("no session_end in %s with %d jobs outstanding", stallTimeout, len(out))
		}
		if err != nil {
			return err
		}
		if err := fill(); err != nil {
			return err
		}
	}
	return nil
}

// stallTimeout is how long the job loop waits for any job to finish
// before it gives up on the run.
var stallTimeout = 60 * time.Second

// readLoop sends the workload's read mix open-loop: read k is due at
// start + k/rate whatever happened to earlier reads, and is timed from
// that due time, so a stall counts against every read it delays.
func (h *httpRun) readLoop(base string, start, deadline time.Time, job string, rs *readStats) {
	interval := time.Duration(float64(time.Second) / h.def.readRate)
	var prevDone time.Time
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		free := due
		if prevDone.After(free) {
			free = prevDone
		}
		route := h.def.reads[k%len(h.def.reads)]
		ok := doRead(h.connB, base, route, job)
		done := time.Now()
		prevDone = done
		rs.mu.Lock()
		rs.phase.add(ok)
		if !ok {
			rs.Failed++
		}
		rs.LatencyMS = append(rs.LatencyMS, ms(done.Sub(due)))
		rs.RouteMS[route] = append(rs.RouteMS[route], ms(done.Sub(sent)))
		rs.LateMS = append(rs.LateMS, ms(sent.Sub(due)))
		rs.OwnLagMS = append(rs.OwnLagMS, ms(sent.Sub(free)))
		rs.mu.Unlock()
	}
}

// readURL is the request a route sends.
func readURL(base, route, job string) string {
	switch route {
	case routeJob:
		return base + "/v1/jobs/" + job
	case routeExplain:
		return base + "/v1/jobs/" + job + "/explain"
	case routeTrace:
		return base + "/v1/jobs/" + job + "/trace"
	case routeHistory:
		return base + "/v1/history?limit=50"
	case routeEffectiveness:
		return base + "/v1/effectiveness?tenant=" + prefillTenant + "&workload=" + prefillWorkload
	case routeQuery:
		now := time.Now().Unix()
		return base + "/v1/query?metric=" + queryMetric +
			"&from=" + strconv.FormatInt(now-3600, 10) + "&to=" + strconv.FormatInt(now, 10)
	case routeMetrics:
		return base + "/metrics?format=json"
	default:
		return base + "/healthz"
	}
}

// queryMetric is the telemetry series the range query reads; the store
// samples it every interval from start-up on.
const queryMetric = "jobs_queue_depth"

// doRead sends one read and reports whether it returned 200 with a JSON
// body.
func doRead(c *http.Client, base, route, job string) bool {
	resp, err := c.Get(readURL(base, route, job))
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && json.Valid(body)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jobStreamCloseLag replays a finished job's event stream
// (GET /v1/jobs/{id}/events) and returns how long the server takes to end
// it. The stream closes on a poll tick, not on session_end, which is why
// the load generator times jobs by the server-wide stream instead.
func jobStreamCloseLag(c *http.Client, base, id string) (float64, error) {
	t0 := time.Now()
	resp, err := c.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/jobs/%s/events: %s", id, resp.Status)
	}
	return ms(time.Since(t0)), nil
}
