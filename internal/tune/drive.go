package tune

import (
	"context"
	"fmt"
)

// This file is the one ask/tell drive loop and the pieces it composes. Every
// session — plain or multi-fidelity, inline (DriveProposer) or on the engine,
// fresh or resumed — is the same pipeline:
//
//	proposer view → Drive loop → evaluator stack → target capabilities
//
// A trial batch is always []Candidate (a plain proposal is a candidate at
// fidelity 0), the proposer is always seen as a FidelityProposer (LiftProposer
// adapts a plain one), and the loop is parameterized only by its Evaluator:
// Inline here, the engine's worker/remote pool, and the memo and replay
// decorators the engine stacks on top.

// Capabilities is a target's evaluation faces — index-keyed noise and the
// low-fidelity path — resolved once at session start, so no driver, evaluator
// or remote worker probes interfaces or decides "full vs partial fidelity →
// which Run method" on its own.
type Capabilities struct {
	Target
	ct  ConcurrentTarget
	ft  FidelityTarget
	cft ConcurrentFidelityTarget
}

// Resolve probes t's capabilities.
func Resolve(t Target) Capabilities {
	c := Capabilities{Target: t}
	c.ct, _ = t.(ConcurrentTarget)
	c.ft, _ = t.(FidelityTarget)
	c.cft, _ = t.(ConcurrentFidelityTarget)
	return c
}

// Indexed reports whether every evaluation path the target has is keyed by a
// reserved run index. It gates everything that relies on run-index
// determinism: parallel and remote evaluation, checkpoints, and resume.
func (c Capabilities) Indexed() bool {
	return c.ct != nil && (c.ft == nil || c.cft != nil)
}

// ReserveRuns claims n run indices on an Indexed target and returns the first.
func (c Capabilities) ReserveRuns(n int64) int64 { return c.ct.ReserveRuns(n) }

// RequireFidelity is the one check (and the one message) for a fidelity
// schedule meeting a target that cannot run partial workloads.
func (c Capabilities) RequireFidelity() error {
	if c.ft == nil {
		return fmt.Errorf("tune: target %q has no fidelity-aware evaluation path", c.Name())
	}
	return nil
}

// NextRun as Eval's run index draws the target's own run counter (Run,
// RunFidelity) instead of an index reserved by the caller.
const NextRun int64 = -1

// Eval runs one candidate: idx NextRun evaluates on the target's own run
// counter, any other idx on that reserved index (the target must be
// Indexed). Full-fidelity candidates take the plain path, so a fidelity
// session's top-rung trials draw the plain noise stream; partial results are
// stamped with the fidelity they measured.
func (c Capabilities) Eval(ctx context.Context, idx int64, cand Candidate) (Result, error) {
	fid := NormFidelity(cand.Fidelity)
	switch {
	case fid == 0 && idx == NextRun:
		return c.Run(cand.Config), nil
	case fid == 0:
		return c.ct.RunIndexed(idx, cand.Config), nil
	case c.ft == nil:
		return Result{}, c.RequireFidelity()
	}
	var res Result
	if idx == NextRun {
		res = c.ft.RunFidelity(ctx, fid, cand.Config)
	} else {
		res = c.cft.RunIndexedFidelity(ctx, idx, fid, cand.Config)
	}
	res.Fidelity = fid
	return res, nil
}

// Evaluator evaluates one proposed batch for the drive loop. It must call
// yield(i, result) for batch positions 0, 1, 2, … in that order on the
// caller's goroutine — however the evaluations were scheduled — and stop as
// soon as yield returns false (the session was cut; whatever is still in
// flight is superfluous). Evaluators compose: the engine's memo and replay
// layers are Evaluators wrapping another.
type Evaluator interface {
	Evaluate(ctx context.Context, batch []Candidate, yield func(i int, res Result) bool) error
}

// Inline is the sequential evaluator: each candidate runs on the caller's
// goroutine, on the target's own run counter, only once the previous one has
// been yielded — so nothing is ever evaluated past a budget cut.
func Inline(c Capabilities) Evaluator { return inline{c} }

type inline struct{ caps Capabilities }

func (e inline) Evaluate(ctx context.Context, batch []Candidate, yield func(int, Result) bool) error {
	for i, cand := range batch {
		res, err := e.caps.Eval(ctx, NextRun, cand)
		if err != nil {
			return err
		}
		if !yield(i, res) {
			break
		}
	}
	return nil
}

// LiftProposer presents a plain Proposer as a FidelityProposer: every
// proposal is a candidate at fidelity 0 and nothing is ever pruned.
// SessionAware and Recommender are forwarded when the proposer has them.
func LiftProposer(p Proposer) FidelityProposer { return lifted{p} }

type lifted struct{ p Proposer }

func (l lifted) ProposeFidelity(n int) []Candidate {
	cfgs := l.p.Propose(n)
	out := make([]Candidate, len(cfgs))
	for i, cfg := range cfgs {
		out[i].Config = cfg
	}
	return out
}
func (l lifted) ObserveFidelity(t Trial) { l.p.Observe(t) }
func (l lifted) PruneNotices() []int     { return nil }
func (l lifted) BindSession(s *Session)  { bindSession(l.p, s) }
func (l lifted) Recommend() Config       { return recommend(l.p) }

// Drive is the ask/tell loop: gate → propose → evaluate → record, observe and
// prune in proposal order → batch boundary → finish. ev decides how a batch
// is evaluated; boundary (may be nil) runs at every batch boundary — each
// proposed candidate observed, no run reservation outstanding — the only
// point a session's resumable state is well-defined.
func Drive(ctx context.Context, name string, target Target, b Budget, fp FidelityProposer, ev Evaluator, boundary func(*Session)) (*TuningResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := NewSession(ctx, target, b)
	// Session-aware proposers get the session handle before anything — replay
	// included — runs, so the scenario bookkeeping the wrappers switch on and
	// the drift detector's re-anchors land on the live session; the unbind is
	// what releases a Sequential body however the session ends.
	bindSession(fp, s)
	defer bindSession(fp, nil)
	for !s.Exhausted() {
		s.gate()
		if s.Exhausted() {
			break // the gate may have unblocked on cancellation
		}
		remaining := s.Remaining()
		batch := fp.ProposeFidelity(remaining)
		if len(batch) == 0 {
			break
		}
		if len(batch) > remaining {
			batch = batch[:remaining]
		}
		observed := 0
		err := ev.Evaluate(ctx, batch, func(i int, res Result) bool {
			// Checked after the evaluation, so a cut that lands mid-evaluation
			// drops the in-flight trial identically under every evaluator.
			if s.Exhausted() {
				return false
			}
			fp.ObserveFidelity(s.Record(batch[i], res))
			s.Prune(fp.PruneNotices()...)
			observed++
			return !s.Exhausted()
		})
		if err != nil {
			return nil, err
		}
		if observed < len(batch) {
			break
		}
		if boundary != nil {
			boundary(s)
		}
	}
	// A cancelled session is an error, not a short tuning run, even when
	// first noticed at the loop head.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Finish(name, recommend(fp)), nil
}

// DriveProposer evaluates a Proposer inline against target under b and
// packages the outcome, for code below the engine that drives a proposer of
// its own (SARD's screen, the recommender on a plain target). The engine runs
// the same loop with its evaluator stack, which is why both produce identical
// results for a fixed seed.
func DriveProposer(ctx context.Context, name string, target Target, b Budget, p Proposer) (*TuningResult, error) {
	return Drive(ctx, name, target, b, LiftProposer(p), Inline(Resolve(target)), nil)
}
