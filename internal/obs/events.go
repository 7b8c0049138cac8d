package obs

import (
	"context"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// EventType classifies a telemetry event.
type EventType string

// Event types emitted by the tuning service. A session covers one tuning
// entry point (typically a full pipeline job); trials are the tuner's
// evaluations; executions are the budgeted runs outside the tuning loops
// (probes, the baseline measurement).
const (
	EventSessionStart EventType = "session_start"
	EventTrial        EventType = "trial"
	EventExecution    EventType = "execution"
	EventSLOViolation EventType = "slo_violation"
	EventSessionEnd   EventType = "session_end"
	// EventPrune reports a significance-analysis round of a pruning
	// session: the active search dimension, the knobs dropped (or
	// restored), and the leading knob importances.
	EventPrune EventType = "prune"
	// EventDecide explains one EI-guided proposal: the chosen candidate's
	// posterior and expected improvement decomposed into exploitation and
	// exploration, its rank, the pool size, and the surrogate backend.
	EventDecide EventType = "decide"
	// EventModelHealth reports online surrogate calibration: z-score
	// coverage of the 1σ/2σ predictive intervals, windowed residual RMSE,
	// and rolling median NLPD, graded by severity.
	EventModelHealth EventType = "model_health"
	// EventStall reports convergence/stall detection transitions: the
	// best-so-far plateau length with EI-decay context, graded by
	// severity (emitted again on recovery, so consumers can clear).
	EventStall EventType = "stall"
	// EventAlert reports an alert-engine state transition: the rule name
	// in Alert, the new state (firing, resolved) in State, the observed
	// value that drove the decision in Value, graded by Severity.
	EventAlert EventType = "alert"
)

// Event is one structured telemetry record. Every field is a value type
// so publishing copies the event into the ring and subscriber channels
// without allocating. Zero-valued optional fields are omitted from the
// JSONL encoding; json tags keep encoding/json round-trips (tests,
// tunectl) aligned with the hand-rolled encoder.
type Event struct {
	// Seq is the log-assigned sequence number (1-based, strictly
	// increasing). It doubles as the SSE event ID for resumption.
	Seq uint64 `json:"seq"`
	// TimeNS is the publish wall-clock time in Unix nanoseconds.
	TimeNS int64     `json:"ts"`
	Type   EventType `json:"type"`

	// Session identifies the tuning session (the job ID under tuneserve);
	// Tenant and Workload identify whose work it is.
	Session  string `json:"session,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Workload string `json:"workload,omitempty"`

	// Phase is the pipeline phase that produced the event: cloud, probe,
	// disc, baseline.
	Phase string `json:"phase,omitempty"`
	// Trial is the session-wide 1-based trial number (trial events only).
	Trial int `json:"trial,omitempty"`
	// BudgetTrials is the session's total trial budget (session_start).
	BudgetTrials int `json:"budgetTrials,omitempty"`

	// Cluster is the executing cluster ("4x nimbus/h1.4xlarge") and
	// RuntimeS the observed runtime, for trial/execution events.
	Cluster  string  `json:"cluster,omitempty"`
	RuntimeS float64 `json:"runtimeS,omitempty"`
	Failed   bool    `json:"failed,omitempty"`

	// Objective is the penalized objective value of the trial; BestSoFar
	// the best successful objective seen in the session so far (absent
	// until the first success); RegretS the trial's simple regret against
	// the incumbent (Objective - BestSoFar).
	Objective float64 `json:"objective,omitempty"`
	BestSoFar float64 `json:"bestSoFar,omitempty"`
	RegretS   float64 `json:"regretS,omitempty"`

	// CostUSD is the dollar cost of this trial/execution
	// (cloud.ClusterSpec.CostOf of its runtime); SpendUSD the session's
	// cumulative tuning spend including probes and the baseline.
	CostUSD  float64 `json:"costUSD,omitempty"`
	SpendUSD float64 `json:"spendUSD,omitempty"`

	// Attainment is the fraction of the session's active SLO clauses the
	// incumbent meets; BurnRate the average spend per trial; and
	// ProjectedSpendUSD the linear projection of the session bill at
	// budget exhaustion.
	Attainment        float64 `json:"attainment,omitempty"`
	BurnRate          float64 `json:"burnRate,omitempty"`
	ProjectedSpendUSD float64 `json:"projectedSpendUSD,omitempty"`

	// ActiveDims and TotalDims report a pruning session's current search
	// dimension against the full space (prune events; ActiveDims also
	// rides on trial events of pruning sessions once the space shrank).
	ActiveDims int `json:"activeDims,omitempty"`
	TotalDims  int `json:"totalDims,omitempty"`
	// Dropped lists the pruned knob names, comma-separated; Importance the
	// leading knob importances as "name=share" pairs, comma-separated.
	// Both are prune-event fields, pre-rendered to keep Event value-only.
	Dropped    string `json:"dropped,omitempty"`
	Importance string `json:"importance,omitempty"`

	// Surrogate names the posterior backend behind a decide event
	// ("gp", "rffgp", "forest").
	Surrogate string `json:"surrogate,omitempty"`
	// Candidates is the acquisition pool size scored for a decide event;
	// Rank the chosen candidate's EI rank within it (1 = best).
	Candidates int `json:"candidates,omitempty"`
	Rank       int `json:"rank,omitempty"`
	// PredMean/PredStd are the chosen candidate's posterior in
	// model-target (log-objective) units; EI its expected improvement,
	// decomposed exactly as EI = EIExploit + EIExplore.
	PredMean  float64 `json:"predMean,omitempty"`
	PredStd   float64 `json:"predStd,omitempty"`
	EI        float64 `json:"ei,omitempty"`
	EIExploit float64 `json:"eiExploit,omitempty"`
	EIExplore float64 `json:"eiExplore,omitempty"`
	// TopK renders the leading candidates as "rank:ei(exploit+explore)"
	// pairs, comma-separated — pre-rendered to keep Event value-only.
	TopK string `json:"topK,omitempty"`

	// Calibration fields (model_health events): Scores is the number of
	// graded predictions; Coverage1/Coverage2 the windowed fractions of
	// outcomes inside the predicted 1σ/2σ intervals (ideal 0.683/0.954);
	// RMSE the windowed root-mean-square residual; NLPD the rolling
	// median negative log predictive density.
	Scores    int     `json:"scores,omitempty"`
	Coverage1 float64 `json:"coverage1,omitempty"`
	Coverage2 float64 `json:"coverage2,omitempty"`
	RMSE      float64 `json:"rmse,omitempty"`
	NLPD      float64 `json:"nlpd,omitempty"`

	// Stall fields: Plateau is the best-so-far plateau length (trials
	// without improvement); EIPeak the largest max-EI seen; EIDecay the
	// latest max-EI as a fraction of that peak (the latest max-EI itself
	// rides in EI).
	Plateau int     `json:"plateau,omitempty"`
	EIPeak  float64 `json:"eiPeak,omitempty"`
	EIDecay float64 `json:"eiDecay,omitempty"`
	// Severity grades model_health, stall and alert events: ok, warn,
	// critical.
	Severity string `json:"severity,omitempty"`

	// Alert fields: Alert is the rule name, State the new lifecycle state
	// ("firing", "resolved"), and Value the observed metric or burn-rate
	// value at the transition.
	Alert string  `json:"alert,omitempty"`
	State string  `json:"state,omitempty"`
	Value float64 `json:"value,omitempty"`

	// Detail carries human-readable context (violation text, session
	// outcome, prune-round reason, diagnostic verdicts).
	Detail string `json:"detail,omitempty"`
}

// Event-log loss is itself telemetry: the alert engine watches these to
// page on observability-pipeline degradation (see internal/telemetry).
var (
	mEventsPublished = Default().Counter("events_published_total",
		"Telemetry events accepted by the event log.")
	mEventsDropped = Default().Counter("events_dropped_total",
		"Telemetry events lost to full subscriber buffers (slow readers).")
)

// EventLog is a bounded, subscribable log of telemetry events: a ring
// buffer of the most recent events plus non-blocking fan-out to live
// subscribers. Publishing never blocks and never allocates — a slow
// subscriber loses events (counted, per subscriber) instead of stalling
// the tuning hot path. Construct with NewEventLog; safe for concurrent
// use. A nil *EventLog is a valid no-op sink.
type EventLog struct {
	mu        sync.Mutex
	buf       []Event
	n         uint64 // total events ever published; Seq of the newest
	subs      map[*EventSub]struct{}
	closed    bool
	dropTotal uint64
	// sink, when set, observes every published event after its sequence
	// number is assigned — the storage tier's append hook. It runs under
	// the publish lock, so it must not block (WAL appends go through a
	// bounded asynchronous queue).
	sink func(Event)
}

// SetSink installs fn to observe every published event (with Seq and
// TimeNS assigned), or removes it when nil. The callback runs under the
// publish lock and must not block; drop rather than stall.
func (l *EventLog) SetSink(fn func(Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = fn
	l.mu.Unlock()
}

// DefaultEventCapacity is the ring size NewEventLog(0) uses.
const DefaultEventCapacity = 1 << 13

// NewEventLog returns an event log retaining the last capacity events
// (0 uses DefaultEventCapacity).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{
		buf:  make([]Event, capacity),
		subs: make(map[*EventSub]struct{}),
	}
}

// Publish assigns the event's sequence number and timestamp, appends it
// to the ring, and offers it to every live subscriber without blocking:
// subscribers with full channels drop the event and their drop counter
// advances. Publishing to a nil or closed log is a no-op.
func (l *EventLog) Publish(e Event) {
	if l == nil {
		return
	}
	now := time.Now().UnixNano()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.n++
	e.Seq = l.n
	if e.TimeNS == 0 {
		e.TimeNS = now
	}
	l.buf[(l.n-1)%uint64(len(l.buf))] = e
	if l.sink != nil {
		l.sink(e)
	}
	for sub := range l.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped++
			l.dropTotal++
			mEventsDropped.Inc()
		}
	}
	l.mu.Unlock()
	mEventsPublished.Inc()
}

// EventSub is one live subscription. Receive from C; Close when done.
type EventSub struct {
	log     *EventLog
	ch      chan Event
	dropped uint64
	closed  bool
}

// C is the subscription's event channel. It is closed when either the
// subscriber or the log closes.
func (s *EventSub) C() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber lost to a full buffer.
func (s *EventSub) Dropped() uint64 {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription and closes its channel. Safe to call
// more than once and after the log itself has closed.
func (s *EventSub) Close() {
	s.log.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(s.log.subs, s)
		close(s.ch)
	}
	s.log.mu.Unlock()
}

// SubscribeFrom atomically snapshots the retained events with Seq >
// fromSeq (the replay) and registers a live subscription with the given
// channel buffer (0 uses 256): every event published after the snapshot
// is delivered to the channel, so replay + tail covers the stream with
// no gap and no duplicate. On a closed log the subscription's channel is
// already closed; the replay is still served.
func (l *EventLog) SubscribeFrom(fromSeq uint64, buf int) ([]Event, *EventSub) {
	if buf <= 0 {
		buf = 256
	}
	l.mu.Lock()
	replay := l.snapshotLocked(fromSeq)
	sub := &EventSub{log: l, ch: make(chan Event, buf)}
	if l.closed {
		sub.closed = true
		close(sub.ch)
	} else {
		l.subs[sub] = struct{}{}
	}
	l.mu.Unlock()
	return replay, sub
}

// Snapshot returns the retained events with Seq > fromSeq, oldest first.
func (l *EventLog) Snapshot(fromSeq uint64) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(fromSeq)
}

func (l *EventLog) snapshotLocked(fromSeq uint64) []Event {
	first := uint64(1)
	if l.n > uint64(len(l.buf)) {
		first = l.n - uint64(len(l.buf)) + 1
	}
	if fromSeq+1 > first {
		first = fromSeq + 1
	}
	if first > l.n {
		return nil
	}
	out := make([]Event, 0, l.n-first+1)
	for seq := first; seq <= l.n; seq++ {
		out = append(out, l.buf[(seq-1)%uint64(len(l.buf))])
	}
	return out
}

// EventStats is a point-in-time summary of the log.
type EventStats struct {
	// Published counts every event ever accepted.
	Published uint64 `json:"published"`
	// Dropped counts events lost across all subscribers (slow readers).
	Dropped uint64 `json:"dropped"`
	// Subscribers is the number of live subscriptions.
	Subscribers int `json:"subscribers"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
}

// Stats summarizes the log. A nil log reports zeros.
func (l *EventLog) Stats() EventStats {
	if l == nil {
		return EventStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return EventStats{
		Published:   l.n,
		Dropped:     l.dropTotal,
		Subscribers: len(l.subs),
		Capacity:    len(l.buf),
	}
}

// Close rejects further publishes and closes every subscriber channel,
// releasing SSE handlers and tailers blocked on C(). The ring stays
// readable via Snapshot. Idempotent.
func (l *EventLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		for sub := range l.subs {
			sub.closed = true
			close(sub.ch)
			delete(l.subs, sub)
		}
	}
	l.mu.Unlock()
}

// AppendJSONL appends the event as a single-line JSON object to b and
// returns the extended slice. Optional zero-valued fields are omitted;
// non-finite numbers are skipped to keep the document valid JSON. The
// field set and names match the struct's json tags, so encoding/json can
// decode the output.
func (e Event) AppendJSONL(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, e.TimeNS, 10)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, string(e.Type))
	b = appendStrField(b, "session", e.Session)
	b = appendStrField(b, "tenant", e.Tenant)
	b = appendStrField(b, "workload", e.Workload)
	b = appendStrField(b, "phase", e.Phase)
	b = appendIntField(b, "trial", e.Trial)
	b = appendIntField(b, "budgetTrials", e.BudgetTrials)
	b = appendStrField(b, "cluster", e.Cluster)
	b = appendNumField(b, "runtimeS", e.RuntimeS)
	if e.Failed {
		b = append(b, `,"failed":true`...)
	}
	b = appendNumField(b, "objective", e.Objective)
	b = appendNumField(b, "bestSoFar", e.BestSoFar)
	b = appendNumField(b, "regretS", e.RegretS)
	b = appendNumField(b, "costUSD", e.CostUSD)
	b = appendNumField(b, "spendUSD", e.SpendUSD)
	b = appendNumField(b, "attainment", e.Attainment)
	b = appendNumField(b, "burnRate", e.BurnRate)
	b = appendNumField(b, "projectedSpendUSD", e.ProjectedSpendUSD)
	b = appendIntField(b, "activeDims", e.ActiveDims)
	b = appendIntField(b, "totalDims", e.TotalDims)
	b = appendStrField(b, "dropped", e.Dropped)
	b = appendStrField(b, "importance", e.Importance)
	b = appendStrField(b, "surrogate", e.Surrogate)
	b = appendIntField(b, "candidates", e.Candidates)
	b = appendIntField(b, "rank", e.Rank)
	b = appendNumField(b, "predMean", e.PredMean)
	b = appendNumField(b, "predStd", e.PredStd)
	b = appendNumField(b, "ei", e.EI)
	b = appendNumField(b, "eiExploit", e.EIExploit)
	b = appendNumField(b, "eiExplore", e.EIExplore)
	b = appendStrField(b, "topK", e.TopK)
	b = appendIntField(b, "scores", e.Scores)
	b = appendNumField(b, "coverage1", e.Coverage1)
	b = appendNumField(b, "coverage2", e.Coverage2)
	b = appendNumField(b, "rmse", e.RMSE)
	b = appendNumField(b, "nlpd", e.NLPD)
	b = appendIntField(b, "plateau", e.Plateau)
	b = appendNumField(b, "eiPeak", e.EIPeak)
	b = appendNumField(b, "eiDecay", e.EIDecay)
	b = appendStrField(b, "severity", e.Severity)
	b = appendStrField(b, "alert", e.Alert)
	b = appendStrField(b, "state", e.State)
	b = appendNumField(b, "value", e.Value)
	b = appendStrField(b, "detail", e.Detail)
	return append(b, '}')
}

func appendStrField(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendJSONString(b, v)
}

func appendIntField(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func appendNumField(b []byte, key string, v float64) []byte {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends v as a quoted, escaped JSON string.
func appendJSONString(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); {
		c := v[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
			i++
		case c == '\n':
			b = append(b, '\\', 'n')
			i++
		case c == '\r':
			b = append(b, '\\', 'r')
			i++
		case c == '\t':
			b = append(b, '\\', 't')
			i++
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			_, size := utf8.DecodeRuneInString(v[i:])
			b = append(b, v[i:i+size]...)
			i += size
		}
	}
	return append(b, '"')
}

// Emitter binds an event log to one session's identity. The zero value
// is disabled: Emit is then a no-op, so instrumented code needs no nil
// checks. Emitters flow through contexts like traces do.
type Emitter struct {
	Log                       *EventLog
	Session, Tenant, Workload string
}

// Enabled reports whether emitted events are kept.
func (em Emitter) Enabled() bool { return em.Log != nil }

// Emit stamps the event with the emitter's session identity and
// publishes it.
func (em Emitter) Emit(e Event) {
	if em.Log == nil {
		return
	}
	e.Session = em.Session
	e.Tenant = em.Tenant
	e.Workload = em.Workload
	em.Log.Publish(e)
}

type emitterCtxKey struct{}

// NewEmitterContext returns ctx carrying the emitter; layers below
// (core's session telemetry) pick it up with EmitterFrom.
func NewEmitterContext(ctx context.Context, em Emitter) context.Context {
	return context.WithValue(ctx, emitterCtxKey{}, em)
}

// EmitterFrom returns the emitter carried by ctx (the disabled zero
// Emitter when none is set).
func EmitterFrom(ctx context.Context) Emitter {
	if em, ok := ctx.Value(emitterCtxKey{}).(Emitter); ok {
		return em
	}
	return Emitter{}
}
