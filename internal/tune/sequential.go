package tune

import (
	"iter"
	"slices"
)

// RunFunc is how a sequential tuner body evaluates one configuration: it
// hands cfg to the drive loop as the next proposal and returns what the
// session observed for it. ok is false when the session ended — budget, cut,
// cancellation, error — before cfg was observed; the body must then return
// (further calls keep returning false without running anything).
type RunFunc = func(cfg Config) (res Result, ok bool)

// Sequential presents a straight-line tuning loop — "run this, look at the
// result, decide what to run next" — as a Proposer, so tuners whose next
// experiment depends on the previous result (recursive random search,
// diagnose-and-remedy, screening designs) are driven by Drive like every
// other: one trial path, one budget, checkpoint/resume, the engine's
// evaluator stack and every proposer wrapper.
//
// The body runs as a coroutine (iter.Pull): each run(cfg) parks it and
// surfaces cfg as a one-configuration batch; the next Propose resumes it with
// the observation. Contract:
//
//   - Lazy start. The coroutine is created by the first Propose, never by
//     Sequential itself, so a proposer that is built and never driven holds
//     nothing.
//   - One proposal at a time. Propose returns nil while its last proposal is
//     unobserved (a wrapper topping up a batch gets no second configuration),
//     and returns nil for good once the body has returned.
//   - run returns the latest observation of the configuration it proposed. A
//     fidelity schedule observes one proposal once per rung (the highest rung
//     reached wins); a Pareto sweep broadcasts its other subs' trials, which
//     are ignored once the own one arrived. When no observation carries the
//     proposed configuration — a guardrail measured a substituted one — run
//     returns the latest observation of anything: as for every proposer under
//     a screen, the result may belong to a neighbouring configuration.
//   - Release. The coroutine is a goroutine; it ends when the body returns or
//     when the session does: Drive unbinds its proposer on every exit path
//     (BindSession(nil), forwarded by every wrapper), which makes the parked
//     run return ok=false. Drive it with Drive, or not at all.
func Sequential(body func(run RunFunc)) Proposer { return &sequential{body: body} }

type sequential struct {
	body func(RunFunc)
	next func() (Config, bool) // nil until the first Propose
	stop func()

	asked   Config // the configuration run is parked on
	waiting bool   // nothing was observed since asked was proposed
	own     bool   // last is an observation of asked itself
	last    Result
	done    bool
}

// SequentialBody marks a BatchTuner whose proposer is a Sequential: embed it.
// Such a tuner proposes one configuration per batch, so a fidelity schedule —
// which fills a bracket's base rung from one Propose — cannot spend its
// budget on it and is refused (MultiFidelityTuner.Check).
type SequentialBody struct{}

func (SequentialBody) sequentialBody() {}

// hasSequentialBody reports whether t, or a tuner under t's wrapper shells,
// is marked SequentialBody.
func hasSequentialBody(t Tuner) bool {
	if w, ok := t.(*wrapped); ok {
		return slices.ContainsFunc(w.subs, func(s BatchTuner) bool { return hasSequentialBody(s) })
	}
	_, ok := t.(interface{ sequentialBody() })
	return ok
}

// Propose implements Proposer.
func (p *sequential) Propose(n int) []Config {
	if n <= 0 || p.done || p.waiting {
		return nil
	}
	if p.next == nil {
		p.next, p.stop = iter.Pull(func(yield func(Config) bool) {
			p.body(func(cfg Config) (Result, bool) {
				p.asked, p.waiting, p.own = cfg, true, false
				// Parks until the next Propose or the release. What decides ok
				// is whether cfg was observed meanwhile, not which of the two
				// resumed the body: a session's last trial is observed and
				// then released, and the body still gets its result.
				yield(cfg)
				return p.last, !p.waiting
			})
		})
	}
	cfg, ok := p.next()
	if !ok {
		p.done = true
		return nil
	}
	return []Config{cfg}
}

// Observe implements Proposer.
func (p *sequential) Observe(t Trial) {
	p.waiting = false
	own := t.Config.space == p.asked.space && slices.Equal(t.Config.x, p.asked.x)
	if own || !p.own {
		p.last, p.own = t.Result, own
	}
}

// BindSession implements SessionAware: the unbind at session end releases
// the coroutine.
func (p *sequential) BindSession(s *Session) {
	if s == nil {
		p.done = true
		if p.stop != nil {
			p.stop()
		}
	}
}
