package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	repro "repro"
	"repro/internal/tune"
)

// tracer collects the spans of one traced pass in memory; they are written
// out when the pass ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.t0)) }

// open starts a span other spans will name as their parent and returns its
// index; close ends it.
func (t *tracer) open(name string, parent, session int) int {
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Session: session})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a finished leaf span that began at start and ends now.
func (t *tracer) add(name string, start time.Time, parent, session int) {
	s := span{Name: name, Start: t.at(start), End: t.at(time.Now()), Parent: parent, Session: session}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sessionTrace is what one session's decorators share: where to record,
// and which span caused theirs.
type sessionTrace struct {
	tr      *tracer
	session int
	parent  int

	mu      sync.Mutex
	samples []remoteSample // see tracedRemote
}

func (st *sessionTrace) add(name string, start time.Time) {
	st.tr.add(name, start, st.parent, st.session)
}

// fullTarget is every interface the engine, the drivers and the tuners
// probe a target for. The decorator embeds it, so each capability is
// forwarded and a decorated session takes the engine's real path; both
// bundled systems the workloads tune implement all of it.
type fullTarget interface {
	tune.ConcurrentFidelityTarget
	tune.Describer
	tune.SpecProvider
	tune.AdaptiveTarget
}

// tracedTarget times every evaluation entry point as sysmodel.run.
type tracedTarget struct {
	fullTarget
	st *sessionTrace
}

func (t *tracedTarget) Run(cfg tune.Config) tune.Result {
	defer t.st.add("sysmodel.run", time.Now())
	return t.fullTarget.Run(cfg)
}

func (t *tracedTarget) RunIndexed(i int64, cfg tune.Config) tune.Result {
	defer t.st.add("sysmodel.run", time.Now())
	return t.fullTarget.RunIndexed(i, cfg)
}

func (t *tracedTarget) RunFidelity(ctx context.Context, f float64, cfg tune.Config) tune.Result {
	defer t.st.add("sysmodel.run", time.Now())
	return t.fullTarget.RunFidelity(ctx, f, cfg)
}

func (t *tracedTarget) RunIndexedFidelity(ctx context.Context, i int64, f float64, cfg tune.Config) tune.Result {
	defer t.st.add("sysmodel.run", time.Now())
	return t.fullTarget.RunIndexedFidelity(ctx, i, f, cfg)
}

// tracedTuner times proposer construction (a tuner's offline phase) and
// hands out a timed proposer.
type tracedTuner struct {
	tune.BatchTuner
	st *sessionTrace
}

func (t *tracedTuner) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	start := time.Now()
	p, err := t.BatchTuner.NewProposer(target, b)
	t.st.add("tune.new_proposer", start)
	if err != nil {
		return nil, err
	}
	return &tracedProposer{inner: p, st: t.st}, nil
}

// tracedProposer times Propose and Observe. It always offers BindSession
// and Recommend and forwards them when the inner proposer has them; when it
// has not, the no-op and the zero Config are exactly what the drivers do
// for a proposer without the interface.
type tracedProposer struct {
	inner tune.Proposer
	st    *sessionTrace
}

func (p *tracedProposer) Propose(n int) []tune.Config {
	defer p.st.add("tune.propose", time.Now())
	return p.inner.Propose(n)
}

func (p *tracedProposer) Observe(t tune.Trial) {
	defer p.st.add("tune.observe", time.Now())
	p.inner.Observe(t)
}

func (p *tracedProposer) BindSession(s *tune.Session) {
	if sa, ok := p.inner.(tune.SessionAware); ok {
		sa.BindSession(s)
	}
}

func (p *tracedProposer) Recommend() tune.Config {
	if r, ok := p.inner.(tune.Recommender); ok {
		return r.Recommend()
	}
	return tune.Config{}
}

// tracedFidelityTuner is tracedTuner for multi-fidelity schedules, which
// the engine drives through a different interface.
type tracedFidelityTuner struct {
	tune.FidelityBatchTuner
	st *sessionTrace
}

func (t *tracedFidelityTuner) NewFidelityProposer(target tune.Target, b tune.Budget) (tune.FidelityProposer, error) {
	start := time.Now()
	p, err := t.FidelityBatchTuner.NewFidelityProposer(target, b)
	t.st.add("tune.new_proposer", start)
	if err != nil {
		return nil, err
	}
	return &tracedFidelityProposer{inner: p, st: t.st}, nil
}

type tracedFidelityProposer struct {
	inner tune.FidelityProposer
	st    *sessionTrace
}

func (p *tracedFidelityProposer) ProposeFidelity(n int) []tune.Candidate {
	defer p.st.add("tune.propose", time.Now())
	return p.inner.ProposeFidelity(n)
}

func (p *tracedFidelityProposer) ObserveFidelity(t tune.Trial) {
	defer p.st.add("tune.observe", time.Now())
	p.inner.ObserveFidelity(t)
}

func (p *tracedFidelityProposer) PruneNotices() []int { return p.inner.PruneNotices() }

func (p *tracedFidelityProposer) Recommend() tune.Config {
	if r, ok := p.inner.(tune.Recommender); ok {
		return r.Recommend()
	}
	return tune.Config{}
}

// tracedRemote times each lease on the evaluator fleet as dist.evaluate and
// keeps every overheadSampleEvery-th one for overheadSamples to re-run.
type tracedRemote struct {
	repro.RemoteBackend
	st  *sessionTrace
	env *inproc
}

// remoteSample is one leased evaluation, kept to be repeated locally.
type remoteSample struct {
	idx    int64
	f      float64
	cfg    tune.Config
	remote time.Duration
}

// overheadSampleEvery spaces the samples: repeating one costs as much as
// the trial it mirrors.
const overheadSampleEvery = 8

func (r *tracedRemote) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	start := time.Now()
	res, err := r.RemoteBackend.Evaluate(ctx, idx, f, cfg)
	remote := time.Since(start)
	r.st.add("dist.evaluate", start)
	if err == nil && r.env.remoteCalls.Add(1)%overheadSampleEvery == 0 {
		r.st.mu.Lock()
		r.st.samples = append(r.st.samples, remoteSample{idx, f, cfg, remote})
		r.st.mu.Unlock()
	}
	return res, err
}

// overheadSamples repeats the session's sampled leases on a second instance
// of its target, once the session is over and nothing waits on the slot, and
// records how much longer each took through the fleet: what the lease
// round-trip adds to the evaluation itself.
func (st *sessionTrace) overheadSamples(ctx context.Context, spec repro.Spec, env *inproc) error {
	if len(st.samples) == 0 {
		return nil
	}
	t, err := repro.NewTarget(spec.System, spec.Workload, spec.Seed, spec.Target)
	if err != nil {
		return err
	}
	twin, ok := t.(tune.ConcurrentFidelityTarget)
	if !ok {
		return errNotDecoratable("target", t.Name())
	}
	for _, s := range st.samples {
		t0 := time.Now()
		if s.f <= 0 || s.f >= 1 {
			twin.RunIndexed(s.idx, s.cfg)
		} else {
			twin.RunIndexedFidelity(ctx, s.idx, s.f, s.cfg)
		}
		env.noteOverhead(s.remote - time.Since(t0))
	}
	return nil
}

// tracedWarm times the warm-start transfer query against the repository.
type tracedWarm struct {
	inner tune.WarmSource
	st    *sessionTrace
}

func (w *tracedWarm) WarmConfigs(system string, features map[string]float64, space *tune.Space, k int) []tune.Config {
	defer w.st.add("store.warm_configs", time.Now())
	return w.inner.WarmConfigs(system, features, space, k)
}

// decorate wraps the job's target, tuner and fleet backend in the timing
// decorators. Checkpoint, archive and warm-source closures are wrapped
// where buildJob creates them.
func decorate(job *repro.Job, st *sessionTrace, env *inproc) error {
	ft, ok := job.Target.(fullTarget)
	if !ok {
		return errNotDecoratable("target", job.Target.Name())
	}
	job.Target = &tracedTarget{fullTarget: ft, st: st}
	switch t := job.Tuner.(type) {
	case tune.FidelityBatchTuner:
		job.Tuner = &tracedFidelityTuner{FidelityBatchTuner: t, st: st}
	case tune.BatchTuner:
		job.Tuner = &tracedTuner{BatchTuner: t, st: st}
	default:
		return errNotDecoratable("tuner", job.Tuner.Name())
	}
	if job.Remote != nil {
		job.Remote = &tracedRemote{RemoteBackend: job.Remote, st: st, env: env}
	}
	return nil
}

func errNotDecoratable(kind, name string) error {
	return fmt.Errorf("benchmark: %s %s lacks an interface the timing decorators forward", kind, name)
}
