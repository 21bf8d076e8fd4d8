package tune

import (
	"context"
	"math"
	"sync"
)

// Budget caps the cost a tuner may spend on a target. Trials bounds the
// number of Run calls; SimTime, when positive, additionally bounds the
// cumulative simulated execution time consumed by those runs (experiment-
// driven tuners are expensive precisely because each trial is a real run;
// the budget makes that cost explicit and comparable across categories).
type Budget struct {
	Trials  int     `json:"trials"`
	SimTime float64 `json:"sim_time,omitempty"`
}

// Trial records one configuration evaluation.
type Trial struct {
	N      int    `json:"n"` // 1-based trial number
	Config Config `json:"config"`
	Result Result `json:"result"`
}

// TuningResult is the outcome of a tuning session.
type TuningResult struct {
	Tuner       string  `json:"tuner"`
	Target      string  `json:"target"`
	Best        Config  `json:"best"`
	BestResult  Result  `json:"best_result"`
	Trials      []Trial `json:"trials,omitempty"`
	SimTimeUsed float64 `json:"sim_time_used,omitempty"`
	// Front is the latency-vs-cost Pareto front over the session's trials,
	// populated only when a MultiObjective proposer was bound to the session.
	Front []Trial `json:"pareto_front,omitempty"`
	// GuardrailViolations counts full-fidelity results whose objective
	// breached the bound Guardrail's limit (zero without one).
	GuardrailViolations int `json:"guardrail_violations,omitempty"`
	// DriftDetections counts the session's re-anchors (see Session.ReAnchor).
	DriftDetections int `json:"drift_detections,omitempty"`
}

// Curve returns the best objective seen after each trial — the "tuning
// curve" used to compare convergence speed across approaches. Partial-
// fidelity trials carry the previous best forward: their objectives measure
// a cheaper workload and are not comparable to full runs.
func (r *TuningResult) Curve() []float64 {
	out := make([]float64, len(r.Trials))
	best := math.Inf(1)
	for i, t := range r.Trials {
		if v := t.Result.Objective(); t.Result.FullFidelity() && v < best {
			best = v
		}
		out[i] = best
	}
	return out
}

// TrialsToWithin returns the 1-based trial index at which the tuner first
// reached within factor×reference (e.g. 1.10×best-known); 0 if never.
// Partial-fidelity trials never qualify — their times measure less work.
func (r *TuningResult) TrialsToWithin(reference, factor float64) int {
	limit := reference * factor
	for _, t := range r.Trials {
		if !t.Result.Failed && t.Result.FullFidelity() && t.Result.Time <= limit {
			return t.N
		}
	}
	return 0
}

// Tuner is a named tuning approach. How it searches is one of three forms
// the engine drives: BatchTuner or FidelityBatchTuner (ask/tell, every
// category that proposes configurations) or BlockingTuner (the adaptive
// family). Implementations must be deterministic given their construction
// seed.
type Tuner interface {
	// Name identifies the tuner, e.g. "ituned" or "rules/dbms".
	Name() string
}

// BlockingTuner is the adaptive family's form: its trial is a whole
// controlled run (AdaptiveTarget.RunAdaptive), not a configuration, so it
// owns its loop and charges each run to a Session itself (DESIGN.md §2, "Why
// the adaptive family stays outside").
type BlockingTuner interface {
	Tuner
	// Tune searches within the budget, respecting ctx between runs.
	Tune(ctx context.Context, t Target, b Budget) (*TuningResult, error)
}

// Session tracks trials against a budget on behalf of a tuner and maintains
// the incumbent best. Every trial enters a session through Record — called
// by Drive for configuration trials and by a BlockingTuner for its controlled
// runs — so accounting is uniform across categories. Sessions are safe for
// concurrent use: the engine records trials from its driver goroutine while
// monitors may read progress from others.
type Session struct {
	target Target
	budget Budget
	ctx    context.Context
	mon    *Monitor

	mu      sync.Mutex
	trials  []Trial
	simUsed float64
	best    Config
	bestRes Result
	hasBest bool

	// Scenario bookkeeping, switched on by the wrappers bound to the session
	// (trackFront, guard); all zero for plain sessions.
	pareto     bool
	front      []Trial // non-dominated (Objective, Cost) trials, Pareto only
	limit      float64 // guardrail limit; 0 = no guardrail
	violations int     // guardrail breaches observed
	drifts     int     // ReAnchor count
}

// NewSession starts a session for target under budget. ctx may be nil. When
// ctx carries a Monitor (see WithMonitor) the session emits the ordered
// event stream — TrialStarted/TrialDone/IncumbentImproved — through it.
func NewSession(ctx context.Context, target Target, budget Budget) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Session{target: target, budget: budget, ctx: ctx, mon: MonitorFrom(ctx)}
}

// Remaining returns how many trials the budget still admits.
func (s *Session) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget.Trials - len(s.trials)
}

// Exhausted reports whether another trial is admissible.
func (s *Session) Exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exhaustedLocked()
}

func (s *Session) exhaustedLocked() bool {
	if len(s.trials) >= s.budget.Trials {
		return true
	}
	if s.budget.SimTime > 0 && s.simUsed >= s.budget.SimTime {
		return true
	}
	return s.ctx.Err() != nil
}

// Record is the one way a trial enters a session: the drive loop evaluates
// batches through its Evaluator and merges each outcome here in proposal
// order, stamping a partial result with the candidate's fidelity; a
// BlockingTuner records each controlled run here as a full-fidelity
// candidate. It returns the recorded trial.
func (s *Session) Record(c Candidate, res Result) Trial {
	s.gate()
	s.mu.Lock()
	defer s.mu.Unlock()
	fid := NormFidelity(c.Fidelity)
	if fid != 0 {
		res.Fidelity = fid
	}
	s.emitLocked(Event{Kind: TrialStarted, Trial: len(s.trials) + 1, Config: c.Config, Fidelity: fid})
	return s.recordLocked(c.Config, res)
}

// recordLocked appends the trial and emits its events. Every event of the
// trial and the trial list carry the same res, and nothing mutates it
// afterwards — not its Metrics map either: proposers, wrappers and the
// store read recorded results or copy them before changing a field. A
// StreamEncoder relies on that to render each result once per stream.
func (s *Session) recordLocked(cfg Config, res Result) Trial {
	s.simUsed += res.Time
	t := Trial{N: len(s.trials) + 1, Config: cfg, Result: res}
	s.trials = append(s.trials, t)
	s.emitLocked(Event{Kind: TrialDone, Trial: t.N, Config: cfg, Result: res, SimTimeUsed: s.simUsed})
	// Only full-fidelity results can hold the incumbency: a partial run's
	// time measures a cheaper workload, not a better configuration.
	if res.FullFidelity() && (!s.hasBest || res.Objective() < s.bestRes.Objective()) {
		s.best, s.bestRes, s.hasBest = cfg, res, true
		s.emitLocked(Event{Kind: IncumbentImproved, Trial: t.N, Config: cfg, Result: res})
	}
	// Scenario bookkeeping runs under the same lock, in the same trial
	// order, so its events stay byte-identical at any worker count.
	if s.limit > 0 && res.FullFidelity() && res.Objective() > s.limit {
		s.violations++
		s.emitLocked(Event{Kind: GuardrailViolation, Trial: t.N, Config: cfg, Result: res, Limit: s.limit})
	}
	if s.pareto && res.FullFidelity() && !res.Failed {
		var joined bool
		if s.front, joined = insertFront(s.front, t); joined {
			s.emitLocked(Event{Kind: ParetoIncumbent, Trial: t.N, Config: cfg, Result: res, SimTimeUsed: s.simUsed})
		}
	}
	return t
}

// trackFront switches on latency-vs-cost front tracking: from now on every
// full-fidelity, non-failed trial is tested against the front on
// (Objective, Cost), each insertion emits ParetoIncumbent, and Finish reports
// the front. MultiObjective calls it when bound.
func (s *Session) trackFront() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pareto = true
}

// guard switches on the guardrail count at limit: from now on every
// full-fidelity result whose objective exceeds it emits GuardrailViolation and
// is counted. Guardrail calls it when bound; of two limits the lower holds.
func (s *Session) guard(limit float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit == 0 || limit < s.limit {
		s.limit = limit
	}
}

// NormFidelity normalizes a fidelity: 0 for the full workload (any encoding,
// ≤0 or ≥1), otherwise the partial fraction in (0, 1).
func NormFidelity(f float64) float64 {
	if f <= 0 || f >= 1 {
		return 0
	}
	return f
}

// Prune emits TrialPruned for the given recorded trial numbers — the
// multi-fidelity drivers call it with each batch of prune notices, in the
// deterministic order the proposer decided them. Out-of-range numbers are
// ignored.
func (s *Session) Prune(ns ...int) {
	if len(ns) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range ns {
		if n < 1 || n > len(s.trials) {
			continue
		}
		t := s.trials[n-1]
		s.emitLocked(Event{Kind: TrialPruned, Trial: n, Config: t.Config, Fidelity: NormFidelity(t.Result.Fidelity)})
	}
}

// ReAnchor discards the session's incumbent and emits DriftDetected: the
// caller (a drift detector observing on the driver goroutine) concluded the
// workload shifted, so the incumbent's recorded result no longer measures
// the live workload and must not outrank post-shift trials. Recorded trials,
// sim-time accounting, and the budget are untouched; the next full-fidelity
// result after the re-anchor becomes the new incumbent unconditionally.
// Called between trials on the driver goroutine, so the event's position in
// the stream is deterministic at any worker count.
func (s *Session) ReAnchor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.best, s.bestRes, s.hasBest = Config{}, Result{}, false
	s.drifts++
	s.emitLocked(Event{Kind: DriftDetected, Trial: len(s.trials)})
}

// emitLocked forwards an event to the attached monitor, if any. The session
// lock is held, which is what serializes the stream into trial order.
func (s *Session) emitLocked(ev Event) {
	if s.mon != nil && s.mon.OnEvent != nil {
		s.mon.OnEvent(ev)
	}
}

// gate blocks while the attached monitor holds the session paused. Called
// before starting (or recording) a trial, outside the session lock.
func (s *Session) gate() {
	if s.mon != nil && s.mon.Gate != nil {
		s.mon.Gate()
	}
}

// Trials returns the recorded trials. The caller must not modify the slice.
func (s *Session) Trials() []Trial {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trials
}

// Finish packages the session into a TuningResult for the named tuner.
// If the session ran no trials, best falls back to the provided recommended
// configuration evaluated zero times (rule-based and cost-model tuners
// recommend without running); callers may pass an invalid Config{} to use
// the target default.
func (s *Session) Finish(tuner string, recommended Config) *TuningResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &TuningResult{
		Tuner:               tuner,
		Target:              s.target.Name(),
		Trials:              s.trials,
		SimTimeUsed:         s.simUsed,
		Front:               s.front,
		GuardrailViolations: s.violations,
		DriftDetections:     s.drifts,
	}
	if s.hasBest {
		res.Best, res.BestResult = s.best, s.bestRes
	} else if recommended.Valid() {
		res.Best = recommended
	} else {
		res.Best = s.target.Space().Default()
	}
	return res
}
