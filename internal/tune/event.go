package tune

import "context"

// EventKind names one kind of session event.
type EventKind string

// The ordered event vocabulary of a tuning session. Events are emitted in
// trial order regardless of how much parallelism evaluated the trials, so
// for a fixed spec and seed the event sequence is byte-identical at any
// worker count.
const (
	// TrialStarted announces trial N and the configuration it evaluates.
	TrialStarted EventKind = "trial_started"
	// TrialDone reports trial N's result and the cumulative simulated time.
	TrialDone EventKind = "trial_done"
	// IncumbentImproved follows a TrialDone whose result beat the incumbent.
	IncumbentImproved EventKind = "incumbent_improved"
	// TrialPruned reports that a recorded low-fidelity trial was
	// early-stopped by a rung promotion decision: its configuration will not
	// be re-evaluated at higher fidelity. Pruned trials are emitted in
	// ascending trial order immediately after the observation that decided
	// the rung, so their ordering is part of the deterministic stream.
	TrialPruned EventKind = "trial_pruned"
	// SessionDone closes the stream with the final result or the error.
	SessionDone EventKind = "session_done"
	// ParetoIncumbent reports that a TrialDone joined the session's
	// latency-vs-cost Pareto front (tracked only when a MultiObjective is
	// bound to the session). Every front insertion is announced, so replaying
	// the stream reconstructs the front exactly: keep each announced trial,
	// drop the ones later insertions dominate.
	ParetoIncumbent EventKind = "pareto_incumbent"
	// GuardrailViolation follows a TrialDone whose full-fidelity objective
	// exceeded the limit of the Guardrail bound to the session. The
	// event carries the limit so consumers need no side channel to judge by.
	GuardrailViolation EventKind = "guardrail_violation"
	// DriftDetected marks a workload-drift re-anchor: the session discarded
	// its incumbent because the detector concluded recent results measure a
	// different workload than the one the incumbent was recorded on. Trial
	// is the number of trials recorded when the re-anchor happened.
	DriftDetected EventKind = "drift_detected"
)

// Synthetic stream events emitted by bounded-memory subscriptions and the
// daemon, never by a session itself. They are per-subscriber — two
// subscribers of the same run may see different synthetic events depending
// on how far each fell behind — so they are not part of the deterministic
// recorded sequence and carry no trial payload.
const (
	// StreamCheckpoint opens a subscription whose requested offset has been
	// compacted out of the bounded event buffer: its Summary folds every
	// evicted event (incumbent-so-far, trial counts, pruned/rung counts,
	// sim time), and Seq is the last event the summary covers, so the
	// events that follow continue seamlessly from Seq+1.
	StreamCheckpoint EventKind = "stream_checkpoint"
	// StreamLagged tells a live subscriber that it consumed too slowly and
	// the events between its position and the buffer's oldest retained
	// event were dropped. Summary covers everything through Seq; Dropped
	// counts the events this subscriber missed.
	StreamLagged EventKind = "stream_lagged"
	// Draining is the terminal event a daemon writes on every open SSE
	// stream when it begins a graceful shutdown: the session is being
	// checkpointed and will resume on the next daemon start; clients should
	// reconnect (with Last-Event-ID) after the restart. Its Seq repeats the
	// last event that subscriber was sent.
	Draining EventKind = "draining"
)

// StreamSummary is the one fold of a session's event stream (Add): a run's
// live totals, the compacted replacement for the prefix its bounded buffer
// evicted, and what a subscriber accumulates from the events it receives.
// Applying a summary, then every event after CoveredThrough, leaves a client
// in the same state as replaying the full stream.
type StreamSummary struct {
	// CoveredThrough is the last event Seq folded into this summary.
	CoveredThrough int `json:"covered_through"`
	// TrialsDone counts TrialDone events in the covered prefix.
	TrialsDone int `json:"trials_done"`
	// TrialsPruned and RungsDecided summarize TrialPruned events in the
	// covered prefix (rungs counted as maximal pruned-event groups).
	TrialsPruned int `json:"trials_pruned,omitempty"`
	RungsDecided int `json:"rungs_decided,omitempty"`
	// SimTimeUsed is the cumulative simulated seconds after the last
	// covered TrialDone.
	SimTimeUsed float64 `json:"sim_time_used,omitempty"`
	// BestTrial/BestConfig/BestResult carry the last covered
	// IncumbentImproved (absent when the prefix contains none — a later,
	// still-buffered incumbent event then supplies it). Add records the
	// incumbent; BestConfig and BestResult are filled in by Rendered.
	BestTrial  int               `json:"best_trial,omitempty"`
	BestConfig map[string]string `json:"best_config,omitempty"`
	BestResult *Result           `json:"best_result,omitempty"`
	// ParetoPoints, GuardrailViolations, and DriftDetections summarize the
	// scenario events in the covered prefix (all omitted for sessions that
	// never emit them, so pre-scenario streams marshal unchanged).
	ParetoPoints        int `json:"pareto_points,omitempty"`
	GuardrailViolations int `json:"guardrail_violations,omitempty"`
	DriftDetections     int `json:"drift_detections,omitempty"`
	// Dropped is set on StreamLagged only: how many events this subscriber
	// missed between its position and the summary's coverage.
	Dropped int `json:"dropped,omitempty"`

	lastKind   EventKind // rungs are maximal runs of TrialPruned across Add calls
	bestConfig Config    // the last IncumbentImproved, rendered by Rendered
	bestResult Result
}

// Add folds one event into the summary. A synthetic StreamCheckpoint or
// StreamLagged carries the fold of everything through its Seq, so it
// replaces the summary instead. Add allocates nothing.
func (s *StreamSummary) Add(ev Event) {
	switch ev.Kind {
	case StreamCheckpoint, StreamLagged:
		*s = *ev.Summary
		s.Dropped = 0
		return
	case TrialDone:
		s.TrialsDone++
		s.SimTimeUsed = ev.SimTimeUsed
	case IncumbentImproved:
		s.BestTrial, s.bestResult = ev.Trial, ev.Result
		if ev.Config.Valid() {
			s.bestConfig = ev.Config
		}
	case TrialPruned:
		s.TrialsPruned++
		if s.lastKind != TrialPruned {
			s.RungsDecided++
		}
	case ParetoIncumbent:
		s.ParetoPoints++
	case GuardrailViolation:
		s.GuardrailViolations++
	case DriftDetected:
		s.DriftDetections++
	}
	s.CoveredThrough = ev.Seq
	s.lastKind = ev.Kind
}

// Rendered returns the summary with BestConfig and BestResult filled in from
// the last folded IncumbentImproved (both nil before one).
func (s StreamSummary) Rendered() StreamSummary {
	if s.BestTrial > 0 {
		if s.bestConfig.Valid() {
			s.BestConfig = s.bestConfig.Map()
		}
		res := s.bestResult
		s.BestResult = &res
	}
	return s
}

// Event is one entry in a session's ordered event stream. Which fields are
// populated depends on Kind: trial events carry Trial/Config (and, once
// evaluated, Result and the cumulative SimTimeUsed); SessionDone carries
// Final or Err. Seq numbers the stream from 1 and is assigned by the
// collector (the engine's run handle), not the session.
type Event struct {
	Kind EventKind
	Seq  int
	// Trial is the 1-based trial number (zero for SessionDone).
	Trial  int
	Config Config
	Result Result
	// Fidelity is the partial fidelity the trial runs at (TrialStarted and
	// TrialPruned in multi-fidelity sessions; zero means full fidelity).
	Fidelity float64
	// SimTimeUsed is the session's cumulative simulated seconds after this
	// trial (TrialDone only).
	SimTimeUsed float64
	// Limit is the guardrail the result breached (GuardrailViolation only).
	Limit float64
	// Final is the session outcome (SessionDone on success).
	Final *TuningResult
	// Err is the session failure (SessionDone on error).
	Err error
	// Summary is the compacted prefix carried by the synthetic
	// StreamCheckpoint/StreamLagged events (nil on all session events, so
	// recorded streams marshal unchanged).
	Summary *StreamSummary
}

// MarshalJSON renders the event as AppendJSON does.
func (e Event) MarshalJSON() ([]byte, error) { return e.AppendJSON(nil) }

// Monitor observes and controls one tuning session. A monitor reaches the
// session through the context given to NewSession (see WithMonitor), which
// is how the engine's run handles receive events from tuners that build
// their sessions internally.
type Monitor struct {
	// OnEvent receives the session's events in trial order. It is called
	// synchronously with the session lock held, so it must be fast, must
	// not block, and must not call back into the session.
	OnEvent func(Event)
	// Gate, when non-nil, is consulted before a new trial starts (and
	// before an externally evaluated trial is recorded). It blocks while
	// the run is paused and must return promptly once resumed or once the
	// session's context is cancelled.
	Gate func()
}

type monitorKey struct{}

// WithMonitor returns a context carrying m; NewSession attaches the
// carried monitor to the session it creates.
func WithMonitor(ctx context.Context, m *Monitor) context.Context {
	return context.WithValue(ctx, monitorKey{}, m)
}

// MonitorFrom returns the monitor carried by ctx, or nil.
func MonitorFrom(ctx context.Context) *Monitor {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(monitorKey{}).(*Monitor)
	return m
}
