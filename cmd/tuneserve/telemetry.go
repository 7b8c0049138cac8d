package main

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/telemetry"
)

// handleQuery serves GET /v1/query?metric=&from=&to=&step= — range
// queries over the embedded time-series store. Times are unix seconds
// (integer or fractional) or RFC3339; from defaults to 15 minutes ago,
// to defaults to now. step is a Go duration ("10s", "1m"; default picks
// ~240 points across the range). Any other query parameter is an exact
// label matcher (e.g. &route=/v1/jobs).
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		writeError(w, http.StatusBadRequest, "invalid_argument",
			"metric is required (known: %s)", strings.Join(s.telemetry.Metrics(), ", "))
		return
	}
	now := time.Now()
	to, err := parseQueryTime(q.Get("to"), now)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "bad to: %v", err)
		return
	}
	from, err := parseQueryTime(q.Get("from"), to.Add(-15*time.Minute))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "bad from: %v", err)
		return
	}
	if !to.After(from) {
		writeError(w, http.StatusBadRequest, "invalid_argument", "from must precede to")
		return
	}
	step := to.Sub(from) / 240
	if v := q.Get("step"); v != "" {
		if step, err = time.ParseDuration(v); err != nil || step <= 0 {
			writeError(w, http.StatusBadRequest, "invalid_argument", "bad step %q", v)
			return
		}
	}
	if step < s.telemetry.Interval() {
		step = s.telemetry.Interval()
	}
	match := map[string]string{}
	for k, vs := range q {
		switch k {
		case "metric", "from", "to", "step":
		default:
			if len(vs) > 0 {
				match[k] = vs[0]
			}
		}
	}
	series := s.telemetry.Query(metric, match, from, to, step)
	if series == nil {
		series = []telemetry.SeriesResult{}
	}
	writeJSON(w, http.StatusOK, api.QueryResponse{
		Metric: metric,
		FromNS: from.UnixNano(),
		ToNS:   to.UnixNano(),
		StepS:  step.Seconds(),
		Series: series,
	})
}

// parseQueryTime accepts unix seconds (integer or fractional) or
// RFC3339; empty yields the default.
func parseQueryTime(v string, def time.Time) (time.Time, error) {
	if v == "" {
		return def, nil
	}
	if sec, err := strconv.ParseFloat(v, 64); err == nil {
		return time.Unix(0, int64(sec*float64(time.Second))), nil
	}
	return time.Parse(time.RFC3339, v)
}

// handleAlerts reports every alert rule's lifecycle state, firing rules
// first.
func (s *server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.AlertsResponse{
		Firing: s.alerts.Firing(),
		Alerts: s.alerts.Alerts(),
	})
}
