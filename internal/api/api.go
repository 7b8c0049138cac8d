// Package api is the wire schema of tuneserve's HTTP API and the client
// that speaks it. Payloads with a home elsewhere are not declared again:
// jobs.Job, storage.Stats, telemetry.SeriesResult and AlertStatus,
// obs.Event (the SSE streams) and obs.Snapshot (/metrics?format=json).
package api

import (
	"fmt"
	"net/http"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/telemetry"
)

// TuneRequest is the tenant-facing submission of POST /v1/jobs and
// POST /v1/tune: the workload, an input size, and optionally a
// high-level objective — no knobs, per the paper's principle 1.
type TuneRequest struct {
	Tenant   string  `json:"tenant"`
	Workload string  `json:"workload"`
	InputGB  float64 `json:"inputGB"`
	// Objective attaches SLO clauses to the session; sessions evaluate
	// them live and stream slo_violation events on breach.
	Objective *Objective `json:"objective,omitempty"`
	// Surrogate selects the model backend BayesOpt sessions fit: "gp"
	// (exact, the default), "rffgp", or "forest". Empty defers to the
	// server's configured default.
	Surrogate string `json:"surrogate,omitempty"`
	// Pruning opts the job's stage-2 session into significance-aware
	// config-space pruning: the tuner analyzes knob importances as
	// evidence accumulates and collapses the search onto the significant
	// knobs. Off by default (or on, if the server runs with -prune).
	Pruning bool `json:"pruning,omitempty"`
}

// Objective is the wire form of an slo.Objective plus the session-level
// tuning-spend cap.
type Objective struct {
	WithinPctOfOptimal float64 `json:"withinPctOfOptimal,omitempty"`
	DeadlineS          float64 `json:"deadlineS,omitempty"`
	BudgetUSDPerRun    float64 `json:"budgetUSDPerRun,omitempty"`
	TuningBudgetUSD    float64 `json:"tuningBudgetUSD,omitempty"`
}

// TuneResponse reports what the pipeline chose and achieved: the body of
// POST /v1/tune and the result of a done job.
type TuneResponse struct {
	Cluster         string           `json:"cluster"`
	Config          confspace.Config `json:"config"`
	DefaultRuntimeS float64          `json:"defaultRuntimeS"`
	TunedRuntimeS   float64          `json:"tunedRuntimeS"`
	ImprovementPct  float64          `json:"improvementPct"`
	TuningCostUSD   float64          `json:"tuningCostUSD"`
	WarmStarted     bool             `json:"warmStarted"`
	WarmSource      string           `json:"warmSource,omitempty"`
	Surrogate       string           `json:"surrogate,omitempty"`
	// Pruning echoes whether stage 2 ran with config-space pruning;
	// ActiveDims/TotalDims report the final search dimension and
	// PrunedKnobs the knobs pinned at session end.
	Pruning     bool     `json:"pruning,omitempty"`
	ActiveDims  int      `json:"activeDims,omitempty"`
	TotalDims   int      `json:"totalDims,omitempty"`
	PrunedKnobs []string `json:"prunedKnobs,omitempty"`
}

// ExplainResponse is the payload of GET /v1/jobs/{id}/explain: the
// tuner's decision process for one job, folded from the retained event
// stream — per-phase search progress, the acquisition (EI) trace, the
// latest surrogate-calibration verdict, and the latest stall verdict.
// It is a summary over whatever the ring still retains; a job whose
// events aged out of the ring explains as much as is left.
type ExplainResponse struct {
	Job   string `json:"job"`
	State string `json:"state"`
	// Diagnostics echoes whether the job ran with the diagnostics layer;
	// a false here explains why the phases carry no decide/health data.
	Diagnostics bool   `json:"diagnostics"`
	Surrogate   string `json:"surrogate,omitempty"`
	// Events is how many of the job's events were folded.
	Events int            `json:"events"`
	Phases []PhaseExplain `json:"phases"`
}

// PhaseExplain summarizes one pipeline phase's tuning loop.
type PhaseExplain struct {
	Phase  string `json:"phase"`
	Trials int    `json:"trials"`
	Failed int    `json:"failed"`
	// BestSoFar is the phase's best observed objective; Plateau how many
	// trials have landed since it last improved.
	BestSoFar float64 `json:"bestSoFar,omitempty"`
	Plateau   int     `json:"plateau"`
	// Decisions counts the explained EI-guided proposals; LastEI/PeakEI
	// the latest and largest chosen-candidate EI, EIDecay their ratio.
	Decisions int     `json:"decisions"`
	LastEI    float64 `json:"lastEI,omitempty"`
	PeakEI    float64 `json:"peakEI,omitempty"`
	EIDecay   float64 `json:"eiDecay,omitempty"`
	// ExploitShare is the exploitation fraction of the latest decision's
	// EI — near 1 the model is refining a known optimum, near 0 it is
	// still exploring uncertainty.
	ExploitShare float64 `json:"exploitShare,omitempty"`
	// Calibration is the latest model_health verdict, Stall the latest
	// stall verdict (absent until the diagnostics first speak).
	Calibration *CalibrationExplain `json:"calibration,omitempty"`
	Stall       *StallExplain       `json:"stall,omitempty"`
}

// CalibrationExplain is a phase's latest surrogate-calibration verdict.
type CalibrationExplain struct {
	Scores    int     `json:"scores"`
	Coverage1 float64 `json:"coverage1"`
	Coverage2 float64 `json:"coverage2"`
	RMSE      float64 `json:"rmse"`
	NLPD      float64 `json:"nlpd"`
	Severity  string  `json:"severity"`
	Detail    string  `json:"detail,omitempty"`
}

// StallExplain is a phase's latest stall verdict.
type StallExplain struct {
	Plateau  int     `json:"plateau"`
	EIDecay  float64 `json:"eiDecay"`
	Severity string  `json:"severity"`
	Detail   string  `json:"detail,omitempty"`
}

// QueryResponse frames a GET /v1/query range-query result with its
// resolved window.
type QueryResponse struct {
	Metric string                   `json:"metric"`
	FromNS int64                    `json:"fromNS"`
	ToNS   int64                    `json:"toNS"`
	StepS  float64                  `json:"stepS"`
	Series []telemetry.SeriesResult `json:"series"`
}

// AlertsResponse frames GET /v1/alerts: every rule's lifecycle state,
// firing rules first.
type AlertsResponse struct {
	Firing int                     `json:"firing"`
	Alerts []telemetry.AlertStatus `json:"alerts"`
}

// HealthResponse is the GET /healthz readiness payload: liveness plus
// enough state to judge whether the instance can take tuning work right
// now.
type HealthResponse struct {
	Status    string         `json:"status"`
	UptimeS   float64        `json:"uptimeS"`
	GoVersion string         `json:"goVersion,omitempty"`
	Revision  string         `json:"revision,omitempty"`
	Engine    jobs.Stats     `json:"engine"`
	Events    obs.EventStats `json:"events"`
	Storage   storage.Stats  `json:"storage"`
	// Telemetry summarizes the embedded time-series store (the storage
	// block's telemetryBlocks/telemetryDropped count its durable side);
	// AlertsFiring is the number of alert rules currently firing.
	Telemetry    telemetry.Stats `json:"telemetry"`
	AlertsFiring int             `json:"alertsFiring,omitempty"`
	// PersistFailures and PersistError report history records that
	// completed in memory but failed to become durable; any failure
	// flips Status to "degraded".
	PersistFailures int64  `json:"persistFailures,omitempty"`
	PersistError    string `json:"persistError,omitempty"`
}

// ErrorEnvelope is the uniform error shape of the API:
// {"error":{"code","message"}}.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// Error is the body of an ErrorEnvelope and the error a Client returns
// for any unexpected response status. Method, Path and Status are filled
// in by the client and never travel on the wire.
type Error struct {
	Method string `json:"-"`
	Path   string `json:"-"`
	Status int    `json:"-"`
	// Code is a stable machine-readable class ("not_found",
	// "invalid_argument", "queue_full", ...); Message says what went
	// wrong. A response that is not an envelope leaves Code empty and
	// carries the trimmed body as Message.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error renders "<METHOD> <path>: <status>: <code>: <message>", leaving
// out the code when the response carried none.
func (e *Error) Error() string {
	s := fmt.Sprintf("%s %s: %d %s", e.Method, e.Path, e.Status, http.StatusText(e.Status))
	if e.Code != "" {
		s += ": " + e.Code
	}
	return s + ": " + e.Message
}
