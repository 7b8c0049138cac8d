package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/telemetry"
)

// runTop implements `tunectl top`: a refreshing operations view over a
// tuneserve instance — job throughput, queue depth, and fsync p99 as
// sparklines from /v1/query, plus the firing alerts from /v1/alerts.
func runTop(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tunectl top", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8642", "tuneserve base URL")
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	count := fs.Int("count", 0, "number of refreshes before exiting (0 = until interrupted)")
	window := fs.Duration("window", 5*time.Minute, "history window behind the sparklines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimSuffix(*server, "/")
	for i := 0; *count <= 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
			fmt.Fprint(out, "\033[H\033[2J") // clear between refreshes
		}
		if err := renderTop(base, *window, out); err != nil {
			return err
		}
	}
	return nil
}

// topRow is one metric line of the ops view.
type topRow struct {
	label  string
	metric string
	unit   string
	// scale converts stored sample values to display units.
	scale float64
}

var topRows = []topRow{
	{label: "jobs finished/s", metric: "jobs_finished_total", unit: "/s", scale: 1},
	{label: "queue depth", metric: "jobs_queue_depth", unit: "", scale: 1},
	{label: "trials/s", metric: "events_published_total", unit: "/s", scale: 1},
	{label: "fsync p99", metric: "wal_fsync_seconds:p99", unit: "ms", scale: 1000},
	{label: "slo burn checks/s", metric: "slo_checks_total", unit: "/s", scale: 1},
}

// renderTop draws one frame.
func renderTop(base string, window time.Duration, out io.Writer) error {
	now := time.Now()
	fmt.Fprintf(out, "tuneserve %s — %s (window %s)\n\n", base,
		now.Format("15:04:05"), window)
	for _, row := range topRows {
		series, err := queryRange(base, row.metric, now.Add(-window), now, window/48)
		if err != nil {
			return err
		}
		vals := flattenAvg(series)
		cur := 0.0
		if len(vals) > 0 {
			cur = vals[len(vals)-1]
		}
		fmt.Fprintf(out, "  %-18s %8.2f%-3s %s\n", row.label, cur*row.scale, row.unit, sparkline(vals, 48))
	}
	alerts, err := api.NewClient(base).Alerts(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nalerts: %d firing\n", alerts.Firing)
	for _, a := range alerts.Alerts {
		if a.State == telemetry.StateInactive {
			continue
		}
		since := ""
		if a.SinceNS > 0 {
			since = " for " + time.Since(time.Unix(0, a.SinceNS)).Truncate(time.Second).String()
		}
		fmt.Fprintf(out, "  [%s] %-22s %-8s value=%.4g%s\n", a.Severity, a.Name, a.State, a.Value, since)
	}
	return nil
}

// queryRange fetches one metric's history from /v1/query.
func queryRange(base, metric string, from, to time.Time, step time.Duration) ([]telemetry.SeriesResult, error) {
	if step <= 0 {
		step = time.Second
	}
	qr, err := api.NewClient(base).Query(context.Background(), metric, from, to, step.Truncate(time.Millisecond))
	return qr.Series, err
}

// flattenAvg folds all matched series into one value list, summing
// same-window averages across series (labels collapse).
func flattenAvg(series []telemetry.SeriesResult) []float64 {
	byT := map[int64]float64{}
	var order []int64
	for _, sr := range series {
		for _, p := range sr.Points {
			if _, ok := byT[p.T]; !ok {
				order = append(order, p.T)
			}
			byT[p.T] += p.Avg
		}
	}
	// Points arrive time-ordered per series; across series the windows
	// align, so first-seen order is chronological.
	out := make([]float64, len(order))
	for i, t := range order {
		out[i] = byT[t]
	}
	return out
}

// sparkLevels are the eight block glyphs of a unicode sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals as a fixed-width unicode strip, scaled to the
// observed range (a flat series renders as its low block).
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return strings.Repeat("·", width)
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for i := 0; i < width-len(vals); i++ {
		b.WriteRune('·') // pad missing history on the left
	}
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// runAlerts implements `tunectl alerts`: the rule table with lifecycle
// states, firing first.
func runAlerts(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tunectl alerts", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8642", "tuneserve base URL")
	asJSON := fs.Bool("json", false, "print the raw alerts JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ap, err := api.NewClient(*server).Alerts(context.Background())
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(ap)
	}
	fmt.Fprintf(out, "%d firing / %d rules\n", ap.Firing, len(ap.Alerts))
	for _, a := range ap.Alerts {
		marker := " "
		if a.State == telemetry.StateFiring {
			marker = "!"
		}
		fmt.Fprintf(out, "%s [%-8s] %-22s %-8s value=%-10.4g %s\n",
			marker, a.Severity, a.Name, a.State, a.Value, a.Detail)
	}
	return nil
}
