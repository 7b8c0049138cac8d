package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/obs"
)

// reconnectDelay paces stream reconnection attempts; a variable so tests
// retry fast. maxReconnectFailures bounds consecutive attempts that make
// no progress (no connection, or connected but received nothing) before
// the tail gives up — a long outage should fail loudly, not spin.
var (
	reconnectDelay       = time.Second
	maxReconnectFailures = 5
)

// runEvents implements `tunectl events <job-id>`: it tails the job's
// telemetry stream from tuneserve's SSE endpoint and pretty-prints each
// event — or, with -json, relays the raw JSONL data lines for piping
// into jq or a file.
//
// The tail survives stream drops: every SSE frame carries its sequence
// number as the event ID, and on a dropped connection the client
// reconnects asking for `?from=<last-seen>` (the same resumption
// contract as the Last-Event-ID header), so the ring replay fills the
// gap and no event is printed twice. The loop ends when the job is
// terminal (or, with -follow=false semantics of a closed stream on a
// finished job, when the server closes a completed stream).
func runEvents(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tunectl events", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8642", "tuneserve base URL")
	asJSON := fs.Bool("json", false, "print raw JSONL events instead of pretty text")
	from := fs.Uint64("from", 0, "replay from this sequence number (0 = full retained history)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag stops at the first positional argument; re-parse what follows
	// the job ID so both `events -json job-1` and `events job-1 -json`
	// work.
	id := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	if id == "" {
		return fmt.Errorf("usage: tunectl events <job-id> [-server URL] [-json] [-from SEQ]")
	}
	ctx := context.Background()
	c := api.NewClient(*server)
	lastSeq := *from
	failures := 0
	for {
		stream, err := c.JobEvents(ctx, id, lastSeq)
		if apiErr := (*api.Error)(nil); errors.As(err, &apiErr) {
			return err
		}
		if err != nil {
			failures++
			if failures >= maxReconnectFailures {
				return fmt.Errorf("stream unreachable after %d attempts: %w", failures, err)
			}
			time.Sleep(reconnectDelay)
			continue
		}
		seen, streamErr := printEventStream(stream, out, *asJSON, &lastSeq)
		stream.Close()
		if bad := (*malformedEventError)(nil); errors.As(streamErr, &bad) {
			return streamErr // a decode error is terminal
		}
		if streamErr != nil && !seen {
			// A transport drop with no events counts as a failed attempt.
			failures++
			if failures >= maxReconnectFailures {
				return fmt.Errorf("stream kept dropping (%d attempts): %w", failures, streamErr)
			}
			time.Sleep(reconnectDelay)
			continue
		}
		if streamErr != nil {
			// Progress was made; reset the failure budget and resume from
			// the last acknowledged sequence number.
			failures = 0
			time.Sleep(reconnectDelay)
			continue
		}
		// Clean EOF: the server closed the stream. For a terminal job that
		// is the end of the tail; otherwise (server restart, shutdown) keep
		// following until the job finishes. A missing job (404 — e.g. the
		// server restarted with empty state) ends the tail with the
		// server's error; an unreachable server is retried.
		job, err := c.Job(ctx, id)
		if apiErr := (*api.Error)(nil); errors.As(err, &apiErr) || (err == nil && job.State.Terminal()) {
			return err
		}
		failures++
		if failures >= maxReconnectFailures {
			return fmt.Errorf("stream closed %d times with job still running", failures)
		}
		time.Sleep(reconnectDelay)
	}
}

// malformedEventError marks a decode failure — terminal, unlike
// transport drops.
type malformedEventError struct{ err error }

func (e *malformedEventError) Error() string { return e.err.Error() }
func (e *malformedEventError) Unwrap() error { return e.err }

// printEventStream consumes SSE frames, emitting one line per event. It
// advances *lastSeq past every event it prints (from the frame's id:
// field), so a caller can resume a dropped stream without gaps or
// duplicates, and reports whether any event was seen.
func printEventStream(r io.Reader, out io.Writer, asJSON bool, lastSeq *uint64) (seen bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var id uint64
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			if v, perr := strconv.ParseUint(line[len("id: "):], 10, 64); perr == nil {
				id = v
			}
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		data := line[len("data: "):]
		if asJSON {
			fmt.Fprintln(out, data)
		} else {
			var e obs.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return seen, &malformedEventError{fmt.Errorf("malformed event %q: %w", data, err)}
			}
			if id == 0 {
				id = e.Seq
			}
			fmt.Fprintln(out, formatEvent(e))
		}
		seen = true
		if id > *lastSeq {
			*lastSeq = id
		}
		id = 0
	}
	return seen, sc.Err()
}

// formatEvent renders one telemetry event as a human-readable line.
func formatEvent(e obs.Event) string {
	switch e.Type {
	case obs.EventSessionStart:
		return fmt.Sprintf("session %s started: %s/%s, budget %d trials",
			e.Session, e.Tenant, e.Workload, e.BudgetTrials)
	case obs.EventTrial:
		status := fmt.Sprintf("%.1fs", e.RuntimeS)
		if e.Failed {
			status = "FAILED"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "trial %3d [%s] %-8s", e.Trial, e.Phase, status)
		if e.BestSoFar != 0 {
			fmt.Fprintf(&b, " best %.1fs", e.BestSoFar)
		}
		if e.Cluster != "" {
			fmt.Fprintf(&b, " on %s", e.Cluster)
		}
		fmt.Fprintf(&b, " cost $%.4f (spent $%.4f)", e.CostUSD, e.SpendUSD)
		if e.Attainment != 0 {
			fmt.Fprintf(&b, " slo %.0f%%", e.Attainment*100)
		}
		return b.String()
	case obs.EventExecution:
		return fmt.Sprintf("%s run: %.1fs on %s cost $%.4f (spent $%.4f)",
			e.Phase, e.RuntimeS, e.Cluster, e.CostUSD, e.SpendUSD)
	case obs.EventPrune:
		var b strings.Builder
		fmt.Fprintf(&b, "prune [%s] %d/%d dims active (%s)", e.Phase, e.ActiveDims, e.TotalDims, e.Detail)
		if e.Dropped != "" {
			fmt.Fprintf(&b, " dropped %s", e.Dropped)
		}
		if e.Importance != "" {
			fmt.Fprintf(&b, " top %s", e.Importance)
		}
		return b.String()
	case obs.EventDecide:
		return fmt.Sprintf("decide [%s] trial %d: EI %.4g (exploit %.3g + explore %.3g) rank %d/%d via %s, μ %.3f σ %.3f",
			e.Phase, e.Trial, e.EI, e.EIExploit, e.EIExplore, e.Rank, e.Candidates, e.Surrogate, e.PredMean, e.PredStd)
	case obs.EventModelHealth:
		return fmt.Sprintf("model health [%s] %s: 1σ %.0f%% / 2σ %.0f%% coverage, rmse %.3f, nlpd %.3f over %d scores — %s",
			e.Phase, strings.ToUpper(e.Severity), e.Coverage1*100, e.Coverage2*100, e.RMSE, e.NLPD, e.Scores, e.Detail)
	case obs.EventStall:
		return fmt.Sprintf("stall [%s] %s: plateau %d, EI at %.0f%% of peak — %s",
			e.Phase, strings.ToUpper(e.Severity), e.Plateau, e.EIDecay*100, e.Detail)
	case obs.EventSLOViolation:
		return fmt.Sprintf("SLO VIOLATION: %s", e.Detail)
	case obs.EventSessionEnd:
		return fmt.Sprintf("session %s ended: %s (total spend $%.4f)",
			e.Session, e.Detail, e.SpendUSD)
	default:
		return fmt.Sprintf("%s %+v", e.Type, e)
	}
}
