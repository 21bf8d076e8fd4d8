package bench

import (
	"context"
	"fmt"
	"math"

	"repro"
	"repro/internal/engine"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives every random stream in the experiment.
	Seed int64
	// Budget is the per-tuner trial budget (default 30).
	Budget int
	// Fast shrinks workloads and budgets for test-suite runs.
	Fast bool
	// Parallel is the worker count for the multi-session scheduler
	// (default 1). Every tuning session owns its target and seed, so tables
	// are identical at any parallelism.
	Parallel int
}

// engine returns the concurrent engine experiments schedule jobs on.
func (o Options) engine() *engine.Engine {
	w := o.Parallel
	if w <= 0 {
		w = 1
	}
	return engine.New(engine.Options{Workers: w})
}

func (o Options) budget() tune.Budget {
	b := o.Budget
	if b <= 0 {
		b = 30
	}
	if o.Fast && b > 12 {
		b = 12
	}
	return tune.Budget{Trials: b}
}

// scaleGB returns full unless Fast, then small.
func (o Options) scaleGB(full, small float64) float64 {
	if o.Fast {
		return small
	}
	return full
}

// cell is one tuning session of an experiment: the spec that builds it and
// the repository its repository-driven tuner reads and its warm start draws
// from (nil = none).
type cell struct {
	spec   repro.Spec
	corpus *tune.Repository
}

// session is a finished cell: the job its spec built (target and tuner), the
// run handle (progress, event history) and the result.
type session struct {
	job    engine.Job
	run    *engine.Run
	result *tune.TuningResult
}

// runCells is the one way an experiment runs tuning sessions: it builds
// every cell with Spec.JobWithWarm, submits them all to one engine and
// returns the finished sessions in cell order, or an error naming the first
// cell that failed to build or to run. Every cell owns its target and seed,
// so the sessions are identical at any Options.Parallel.
func runCells(o Options, cells []cell) ([]session, error) {
	jobs := make([]engine.Job, len(cells))
	for i, c := range cells {
		var corpus tune.Corpus
		var warm tune.WarmSource
		if c.corpus != nil {
			corpus, warm = c.corpus, c.corpus
		}
		job, err := c.spec.JobWithWarm(corpus, warm, nil)
		if err != nil {
			return nil, fmt.Errorf("cell %d (%s): %w", i, c.spec.Name(), err)
		}
		jobs[i] = job
	}
	// The first failure stops the cells still running: the experiment is
	// lost either way.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := o.engine()
	out := make([]session, len(jobs))
	for i, job := range jobs {
		out[i] = session{job: job, run: eng.SubmitContext(ctx, job)}
	}
	var first error
	for i := range out {
		res, err := out[i].run.Wait(context.Background())
		if err != nil && first == nil {
			first = fmt.Errorf("cell %d (%s): %w", i, cells[i].spec.Name(), err)
			cancel()
		}
		out[i].result = res
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// bestTime is the session's best runtime. A pure recommendation (no trials)
// is measured once on the session's own target, out of budget.
func (s session) bestTime() float64 {
	if len(s.result.Trials) == 0 {
		return s.job.Target.Run(s.result.Best).Time
	}
	return s.result.BestResult.Time
}

// Reference finds a best-known configuration for target by spending a
// generous search budget (iTuned plus random), returning its runtime. It is
// the denominator for "trials to within 10% of best-known" measurements.
func Reference(target tune.Target, seed int64, budget int) (tune.Config, float64, error) {
	if budget <= 0 {
		budget = 120
	}
	ctx := context.Background()
	r1, err := repro.Tune(ctx, target, experiment.NewITuned(seed+1000), tune.Budget{Trials: budget * 2 / 3}, 1)
	if err != nil {
		return tune.Config{}, 0, fmt.Errorf("reference search: %w", err)
	}
	r2, err := repro.Tune(ctx, target, &experiment.Random{Seed: seed + 2000}, tune.Budget{Trials: budget / 3}, 1)
	if err != nil {
		return tune.Config{}, 0, fmt.Errorf("reference search: %w", err)
	}
	if r2.BestResult.Objective() < r1.BestResult.Objective() {
		return r2.Best, r2.BestResult.Time, nil
	}
	return r1.Best, r1.BestResult.Time, nil
}

// DefaultTime measures the target's default configuration, averaged over a
// few runs to damp noise.
func DefaultTime(target tune.Target, runs int) float64 {
	if runs <= 0 {
		runs = 3
	}
	return averageRun(target, target.Space().Default(), runs)
}

// averageRun is cfg's mean runtime over runs fresh runs on target.
func averageRun(target tune.Target, cfg tune.Config, runs int) float64 {
	var s float64
	for i := 0; i < runs; i++ {
		s += target.Run(cfg).Time
	}
	return s / float64(runs)
}

// speedup guards against division blowups for failed or zero baselines.
func speedup(base, tuned float64) float64 {
	if tuned <= 0 {
		return math.Inf(1)
	}
	return base / tuned
}

// fmtSpeedup renders a speedup as "3.4x".
func fmtSpeedup(v float64) string { return fmt.Sprintf("%.2fx", v) }

// fmtSeconds renders seconds compactly.
func fmtSeconds(v float64) string {
	switch {
	case v >= 3600:
		return fmt.Sprintf("%.1fh", v/3600)
	case v >= 60:
		return fmt.Sprintf("%.1fm", v/60)
	default:
		return fmt.Sprintf("%.1fs", v)
	}
}
