package simulation

import (
	"repro/internal/mathx/opt"
	"repro/internal/mathx/xrand"
	"repro/internal/sysmodel/trace"
	"repro/internal/tune"
)

// Ask/tell forms of the simulation tuners. TraceWhatIf proposes its
// instrumented probe runs as one batch, rebuilds the resource trace from
// the last probe's counters, searches the replay model offline, and
// proposes the winner for verification. ScaledProxy searches its replica at
// construction (proxy executions cost no budget) and proposes the top
// candidates as one verification batch. ADDM proposes one remedy at a time —
// every diagnose-remedy step needs the metrics of the run before it — as a
// sequential body behind tune.Sequential (addm.go).

// traceProposer is TraceWhatIf in ask/tell form.
type traceProposer struct {
	t     *TraceWhatIf
	space *tune.Space
	specs map[string]float64

	pending    []tune.Config
	probesLeft int
	captured   *trace.Trace
	searched   bool
	rec        tune.Config
}

// NewProposer implements tune.BatchTuner.
func (t *TraceWhatIf) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	specs := map[string]float64{}
	if sp, ok := target.(tune.SpecProvider); ok {
		specs = sp.Specs()
	}
	p := &traceProposer{t: t, space: target.Space(), specs: specs, probesLeft: traceProbeRuns}
	probe := p.space.Default()
	for i := 0; i < traceProbeRuns; i++ {
		p.pending = append(p.pending, probe)
	}
	return p, nil
}

// ensureSearch searches the replay model once a trace has been captured.
func (p *traceProposer) ensureSearch() {
	if p.searched || p.captured == nil {
		return
	}
	p.searched = true
	rng := xrand.New(p.t.Seed + 99)
	best := opt.RecursiveRandomSearch(func(x []float64) float64 {
		cfg := p.space.FromVector(x)
		res := ResourcesFor(cfg, p.specs)
		return trace.Replay(p.captured, res)
	}, p.space.Dim(), traceSearchBudget, rng)
	p.rec = p.space.FromVector(best.X)
}

func (p *traceProposer) Propose(n int) []tune.Config {
	if len(p.pending) == 0 && p.probesLeft == 0 && !p.searched {
		p.ensureSearch()
		if p.rec.Valid() {
			p.pending = append(p.pending, p.rec)
		}
	}
	return tune.ProposeFixed(&p.pending, n)
}

func (p *traceProposer) Observe(t tune.Trial) {
	if p.probesLeft == 0 {
		return // the verification run of the recommendation
	}
	p.probesLeft--
	// TraceFromMetrics recovers cache-independent demand from the observed
	// hit ratio, so replay can re-apply any hypothetical cache size.
	p.captured = TraceFromMetrics(t.Result.Metrics, p.specs)
}

// Recommend implements tune.Recommender (invalid until a probe ran).
func (p *traceProposer) Recommend() tune.Config {
	p.ensureSearch()
	return p.rec
}

// proxyProposer is ScaledProxy in ask/tell form.
type proxyProposer struct {
	pending []tune.Config
	rec     tune.Config
}

// NewProposer implements tune.BatchTuner: the proxy search is the offline
// phase — simulated replica executions cost no trial budget.
func (t *ScaledProxy) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	rng := xrand.New(t.Seed + 7)
	// Keep the best few distinct proxy candidates.
	type cand struct {
		x []float64
		f float64
	}
	var top []cand
	consider := func(x []float64, f float64) {
		for i, c := range top {
			if distance(c.x, x) < 0.05 {
				if f < c.f {
					top[i] = cand{append([]float64(nil), x...), f}
				}
				return
			}
		}
		top = append(top, cand{append([]float64(nil), x...), f})
		// Insertion sort by f; trim.
		for i := len(top) - 1; i > 0 && top[i].f < top[i-1].f; i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
		if len(top) > proxyVerify {
			top = top[:proxyVerify]
		}
	}
	// An indexed replica runs each session's search on indices 1, 2, … — the
	// runs a fresh replica's own counter would draw — so sessions sharing the
	// tuner share no noise stream.
	runProxy := t.Proxy.Run
	if ct, ok := t.Proxy.(tune.ConcurrentTarget); ok {
		var run int64
		runProxy = func(cfg tune.Config) tune.Result {
			run++
			return ct.RunIndexed(run, cfg)
		}
	}
	opt.RecursiveRandomSearch(func(x []float64) float64 {
		res := runProxy(space.FromVector(x))
		f := res.Objective()
		consider(x, f)
		return f
	}, space.Dim(), proxySearchBudget, rng)

	p := &proxyProposer{}
	for _, c := range top {
		p.pending = append(p.pending, space.FromVector(c.x))
	}
	if len(p.pending) > 0 {
		p.rec = p.pending[0]
	}
	return p, nil
}

func (p *proxyProposer) Propose(n int) []tune.Config { return tune.ProposeFixed(&p.pending, n) }

func (p *proxyProposer) Observe(tune.Trial) {}

// Recommend implements tune.Recommender.
func (p *proxyProposer) Recommend() tune.Config { return p.rec }

// Interface conformance checks.
var (
	_ tune.BatchTuner = (*TraceWhatIf)(nil)
	_ tune.BatchTuner = (*ScaledProxy)(nil)
)
