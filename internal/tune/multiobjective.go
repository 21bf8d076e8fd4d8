package tune

import (
	"fmt"
	"math"
)

// This file is the multi-objective half of the scenario work: a wrapper that
// turns any ask/tell tuner into a latency-vs-cost front search by running
// one inner proposer per scalarization weight, round-robin one lap per
// Propose call, and broadcasting every observation to every sub with that
// sub's scalarized objective. The session it is bound to tracks the
// actual front from the true results; the wrapper's job is only to make
// the proposals spread along the trade-off curve instead of piling onto the
// latency-optimal corner.
//
// Scalarization was chosen over an NSGA-style population because it
// composes: each weight's sub-search is an unmodified instance of whatever
// tuner the caller picked (model-based, random, rule-seeded), so every
// existing proposer works un-touched and inherits the determinism contract.
// The scalarized objective each sub-proposer sees is the weighted geometric
// mean
//
//	(objective/objScale)^(1-w) · (cost/costScale)^w
//
// with the scales frozen at the first full-fidelity observation so the
// scalarized stream is stationary (a running normalization would make early
// observations incomparable to late ones and break replay).

// DefaultParetoWeights spread four sub-searches across the trade-off: pure
// latency, two mixes, and pure cost.
var DefaultParetoWeights = []float64{0, 1.0 / 3, 2.0 / 3, 1}

// MultiObjective fans proposals across one inner proposer per scalarization
// weight, round-robin, and scalarizes each observation for its owner.
type MultiObjective struct {
	subs                []Proposer
	weights             []float64
	next                int // round-robin cursor
	objScale, costScale float64
}

// NewMultiObjective pairs subs[i] with weights[i] (cost weight in [0, 1]).
func NewMultiObjective(subs []Proposer, weights []float64) (*MultiObjective, error) {
	if len(subs) == 0 || len(subs) != len(weights) {
		return nil, fmt.Errorf("tune: multi-objective needs one proposer per weight (got %d proposers, %d weights)", len(subs), len(weights))
	}
	for _, w := range weights {
		if !(w >= 0 && w <= 1) {
			return nil, fmt.Errorf("tune: multi-objective weights must be within [0, 1], got %v", w)
		}
	}
	return &MultiObjective{subs: subs, weights: weights}, nil
}

// BindSession implements SessionAware: the bound session tracks the Pareto
// front over its trials, and session-aware subs are forwarded the handle.
func (m *MultiObjective) BindSession(s *Session) {
	if s != nil {
		s.trackFront()
	}
	for _, sub := range m.subs {
		bindSession(sub, s)
	}
}

// Propose implements Proposer: it collects up to one round-robin lap of
// configurations from the sub-proposers. A sub that stops proposing is
// skipped; the batch ends when all subs decline in turn.
//
// The lap cap is load-bearing: the Proposer contract allows returning fewer
// than n, and a driver's first call asks for the whole remaining budget. An
// uncapped fill would propose the entire session up front — sub designs
// first, then model-free fallback probes — and no observation would ever
// reach a sub before its proposals were already fixed. One lap per call
// keeps every sub one observation round-trip behind the trials, and the
// schedule stays a pure function of the observation sequence, identical at
// any worker count.
func (m *MultiObjective) Propose(n int) []Config {
	if n > len(m.subs) {
		n = len(m.subs)
	}
	var out []Config
	declined := 0
	for len(out) < n && declined < len(m.subs) {
		i := m.next % len(m.subs)
		m.next++
		cfgs := m.subs[i].Propose(1)
		if len(cfgs) == 0 {
			declined++
			continue
		}
		declined = 0
		out = append(out, cfgs[0])
	}
	return out
}

// Observe implements Proposer: every sub-proposer sees every trial, with the
// result's objective replaced by that sub's scalarization of (objective,
// cost). Broadcasting instead of owner-routing is what makes the sweep
// competitive with a single-objective search at equal budget: each sub
// proposes only ~1/K of the trials but trains on all of them, so the
// pure-latency sub holds the same information a latency-only session would —
// a sub fed only its own slice would run a K×-starved search and the sweep
// would trail every corner of the front it is supposed to map. The true
// result still reaches the session (it was recorded before Observe), so
// events and the front carry real measurements; only the inner models see
// the weighted view.
func (m *MultiObjective) Observe(t Trial) {
	if t.Result.FullFidelity() && !t.Result.Failed && m.objScale == 0 {
		m.objScale = t.Result.Objective()
		m.costScale = t.Result.Cost
		if m.objScale <= 0 {
			m.objScale = 1
		}
		if m.costScale <= 0 {
			m.costScale = 1
		}
	}
	for i, sub := range m.subs {
		synth := t
		if m.objScale > 0 {
			w := m.weights[i]
			// Weighted geometric mean of the normalized objectives — the
			// multiplicative counterpart of linear scalarization. Tuning
			// objectives are heavy-tailed (a bad config is 10–100× the
			// incumbent), so a linear blend is dominated by the latency
			// axis for every mixed weight and the middle of the front never
			// gets searched; in ratio space a 2× latency miss and a 2× cost
			// miss weigh the same.
			obj := math.Max(t.Result.Objective()/m.objScale, 1e-9)
			cost := math.Max(t.Result.Cost/m.costScale, 1e-9)
			scalar := math.Pow(obj, 1-w) * math.Pow(cost, w)
			// Objective() folds the failure penalty in already; hand the inner
			// model a clean scalar and let Failed ride along untouched.
			synth.Result.Time = scalar
			synth.Result.Failed = false
			synth.Result.Fidelity = t.Result.Fidelity
		}
		sub.Observe(synth)
	}
}

// Recommend implements Recommender: the latency-leaning sub recommends,
// matching the single-objective meaning of "best".
func (m *MultiObjective) Recommend() Config {
	bestAt, bestW := -1, 2.0
	for i, w := range m.weights {
		if w < bestW {
			bestAt, bestW = i, w
		}
	}
	return recommend(m.subs[bestAt])
}

// MultiObjectiveTuner runs one sub-tuner per scalarization weight. Sub-
// tuners must be independent instances (ideally differently seeded, so
// their design phases do not propose identical points); subs[i] optimizes
// cost weight weights[i] and is built with its share of the trial budget,
// not the whole of it. A session driving the result tracks the front the
// sweep uncovers.
func MultiObjectiveTuner(subs []BatchTuner, weights []float64) (BatchTuner, error) {
	if len(subs) == 0 || len(subs) != len(weights) {
		return nil, fmt.Errorf("tune: multi-objective needs one sub-tuner per weight (got %d tuners, %d weights)", len(subs), len(weights))
	}
	return &wrapped{subs: subs, suffix: "+pareto", wrap: func(_ Target, _ Budget, inner []Proposer) (Proposer, error) {
		return NewMultiObjective(inner, weights)
	}}, nil
}
