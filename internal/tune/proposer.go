package tune

import "fmt"

// Proposer is the ask/tell (propose–observe) face of a tuning algorithm.
// Instead of owning the evaluation loop, a proposer is driven from outside:
// the driver asks for up to n candidate configurations, evaluates them
// however it likes (sequentially, in parallel, against a cache), and tells
// the proposer each outcome in trial order. Decoupling proposal from evaluation is what lets the concurrent
// engine fan trials out to a worker pool while the algorithm stays single-
// threaded and deterministic.
//
// Contract:
//   - Propose returns between 0 and n configurations. Returning an empty
//     slice means the proposer is done (its design is exhausted or it has
//     converged); the driver stops.
//   - Observe is called exactly once per evaluated proposal, in proposal
//     order ("ordered observation merge"). Proposers may therefore assume a
//     deterministic interleaving regardless of how evaluations were
//     scheduled.
//   - Propose and Observe are never called concurrently; drivers serialize
//     them. Proposers need no internal locking.
//
// The size of a returned batch must depend only on the proposer's own state
// and the budget headroom n — never on how much parallelism the driver
// happens to have — so that results are bit-identical at any worker count.
type Proposer interface {
	// Propose returns up to n configurations to evaluate next.
	Propose(n int) []Config
	// Observe reports one evaluated trial back to the proposer.
	Observe(Trial)
}

// BatchTuner is a Tuner whose search is in ask/tell form: the engine drives
// a fresh proposer per session (Drive), and DriveProposer drives one inline.
type BatchTuner interface {
	Tuner
	// NewProposer starts one tuning session's proposer for target under b.
	// Construction may perform the tuner's offline phase (model search,
	// rulebook application, repository analysis) but must not run the
	// target.
	NewProposer(t Target, b Budget) (Proposer, error)
}

// Checker is implemented by tuners that cannot serve every (target, budget)
// pair — Starfish models Hadoop only, Ernest needs four trials, the adaptive
// family needs an AdaptiveTarget. Check returns the error the tuner's session
// would fail with, before a session exists: whoever builds a job calls it
// once (CheckTuner) so the refusal reaches the submitter instead of the
// session's first step, and the tuner itself calls the same method rather
// than a copy of the test.
type Checker interface {
	Check(t Target, b Budget) error
}

// CheckTuner refuses a tuner with none of the forms the engine drives — a
// registration can name any Tuner — and runs its Check when it has one.
func CheckTuner(tuner Tuner, t Target, b Budget) error {
	switch tuner.(type) {
	case BatchTuner, FidelityBatchTuner, BlockingTuner:
	default:
		return fmt.Errorf("tune: tuner %q implements none of BatchTuner, FidelityBatchTuner and BlockingTuner", tuner.Name())
	}
	if c, ok := tuner.(Checker); ok {
		return c.Check(t, b)
	}
	return nil
}

// wrapped is the one BatchTuner shell behind WarmStartTuner, GuardrailTuner,
// MultiObjectiveTuner and DriftDetectTuner: it builds the inner proposers —
// one per sub-tuner, each with its share of the budget — and hands them to
// wrap.
type wrapped struct {
	subs   []BatchTuner
	suffix string // appended to subs[0].Name()
	wrap   func(t Target, b Budget, inner []Proposer) (Proposer, error)
}

// share is the budget each sub-tuner is built and checked with. A round-robin
// over K subs hands every sub ~Trials/K evaluations, and a budget-aware tuner
// that believes it owns all of them sizes its design phase for a session it
// will never get — with K=4 on a 30-trial budget every sub would still be
// space-filling when the session ends.
func (w *wrapped) share(b Budget) Budget {
	if n := len(w.subs); b.Trials > 0 && n > 1 {
		b.Trials = max(b.Trials/n, 1)
	}
	return b
}

// Name implements Tuner.
func (w *wrapped) Name() string { return w.subs[0].Name() + w.suffix }

// Check implements Checker for the sub-tuners.
func (w *wrapped) Check(t Target, b Budget) error {
	for _, st := range w.subs {
		if err := CheckTuner(st, t, w.share(b)); err != nil {
			return err
		}
	}
	return nil
}

// NewProposer implements BatchTuner.
func (w *wrapped) NewProposer(t Target, b Budget) (Proposer, error) {
	inner := make([]Proposer, len(w.subs))
	for i, st := range w.subs {
		p, err := st.NewProposer(t, w.share(b))
		if err != nil {
			return nil, err
		}
		inner[i] = p
	}
	return w.wrap(t, b, inner)
}

// Recommender is implemented by proposers that can recommend a
// configuration independent of any evaluation (rule-based and model-based
// tuners). Drivers use it to finish a session whose budget admitted no
// runs, mirroring Session.Finish's recommended-config fallback.
type Recommender interface {
	// Recommend returns the current best recommendation, which may be the
	// invalid zero Config when none exists yet.
	Recommend() Config
}

// RecommendProposer is the ask/tell form shared by tuners that compute one
// recommendation offline (rulebooks, analytical cost models): propose the
// recommendation, spend at most one verification run on it, and — when a
// repair function is supplied and the verification failed — propose the
// repaired configuration once. Recommend always returns the original
// recommendation so zero-budget sessions still report it.
type RecommendProposer struct {
	rec      Config
	repair   func(Config) Config
	pending  []Config
	repaired bool
}

// NewRecommendProposer returns a proposer for rec; repair may be nil.
func NewRecommendProposer(rec Config, repair func(Config) Config) *RecommendProposer {
	return &RecommendProposer{rec: rec, repair: repair, pending: []Config{rec}}
}

// Propose implements Proposer.
func (p *RecommendProposer) Propose(n int) []Config { return ProposeFixed(&p.pending, n) }

// Observe implements Proposer.
func (p *RecommendProposer) Observe(t Trial) {
	if t.Result.Failed && p.repair != nil && !p.repaired {
		p.repaired = true
		if r := p.repair(t.Config); r.Valid() {
			p.pending = append(p.pending, r)
		}
	}
}

// Recommend implements Recommender.
func (p *RecommendProposer) Recommend() Config { return p.rec }

// ProposeFixed is a helper for proposers that hold a precomputed list of
// pending configurations: it pops up to n entries from *pending and returns
// them.
func ProposeFixed(pending *[]Config, n int) []Config {
	if n <= 0 || len(*pending) == 0 {
		return nil
	}
	if n > len(*pending) {
		n = len(*pending)
	}
	out := (*pending)[:n:n]
	*pending = (*pending)[n:]
	return out
}
