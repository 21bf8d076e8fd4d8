package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/mathx/gp"
	"repro/internal/mathx/linalg"
	"repro/internal/tune"
)

// Probes call one layer's public functions directly, on inputs the workload
// itself produced: the configurations a traced session observed and their
// objectives, or the built corpus. A probe whose inputs the workload does
// not produce (no session long enough to reach the sparse GP tier) does not
// run, and its metrics read 0 on that workload.

// probeReps is how often a probe repeats its call; the median is reported.
const probeReps = 5

// medianTime runs fn probeReps times (after prepare, untimed, when given)
// and returns the median duration.
func medianTime(prepare, fn func()) time.Duration {
	d := make([]float64, probeReps)
	for i := range d {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

const (
	exactN  = 160 // the exact GP tier's last size under the default sparse_above
	sparseN = 300 // an ituned-300 session's final training set
	bigN    = 512 // the blocked Cholesky's regime
)

// modelInputs gathers what the model-tier probes need from a traced pass:
// one session's first sparseN observations, and bigN observed points of the
// same space pooled across sessions. ok is false when the workload has no
// session that long.
func modelInputs(sessions []inprocOutcome) (xs [][]float64, ys []float64, pool [][]float64, ok bool) {
	for _, s := range sessions {
		if len(s.xs) >= sparseN && xs == nil {
			xs, ys = s.xs[:sparseN], s.ys[:sparseN]
		}
	}
	if xs == nil {
		return nil, nil, nil, false
	}
	for _, s := range sessions {
		if len(s.xs) > 0 && len(s.xs[0]) == len(xs[0]) {
			pool = append(pool, s.xs...)
		}
		if len(pool) >= bigN {
			return xs, ys, pool[:bigN], true
		}
	}
	return nil, nil, nil, false
}

// kernelMatrix is a squared-exponential Gram matrix over the observed
// points, with the lengthscale tied to the dimension so entries are neither
// all 0 nor all 1, and a jitter that keeps it positive definite.
func kernelMatrix(xs [][]float64) *linalg.Matrix {
	n, d := len(xs), len(xs[0])
	k := linalg.New(n, n)
	twoL2 := float64(d) / 2
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var d2 float64
			for c := range xs[i] {
				diff := xs[i][c] - xs[j][c]
				d2 += diff * diff
			}
			v := math.Exp(-d2 / twoL2)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Add(i, i, 1e-3)
	}
	return k
}

// linalgProbes times the factorizations and the solve the GP tiers sit on,
// including the blocked Cholesky at 1 and 2 workers — measured, on this
// host, not estimated.
func linalgProbes(rep *report, pool [][]float64) error {
	for _, n := range []int{exactN, bigN} {
		a, l := kernelMatrix(pool[:n]), linalg.New(n, n)
		if err := linalg.CholeskyInto(a, l); err != nil {
			return fmt.Errorf("probe kernel matrix n=%d: %w", n, err)
		}
		d := medianTime(nil, func() { _ = linalg.CholeskyInto(a, l) })
		rep.set(fmt.Sprintf("linalg.cholesky_us_n%d", n), "us", us(d), probeReps)
	}
	// The two worker counts take turns, so a host swing hits both alike.
	a, l := kernelMatrix(pool), linalg.New(bigN, bigN)
	var w1, w2 []float64
	for rep := 0; rep < 3*probeReps; rep++ {
		t0 := time.Now()
		_ = linalg.ParallelCholeskyInto(a, l, 1)
		t1 := time.Now()
		_ = linalg.ParallelCholeskyInto(a, l, 2)
		w1, w2 = append(w1, us(t1.Sub(t0))), append(w2, us(time.Since(t1)))
	}
	rep.set(fmt.Sprintf("linalg.parallel_cholesky_us_n%d_w1", bigN), "us", median(w1), len(w1))
	rep.set(fmt.Sprintf("linalg.parallel_cholesky_us_n%d_w2", bigN), "us", median(w2), len(w2))
	ch, err := linalg.NewCholesky(a)
	if err != nil {
		return err
	}
	b, dst := make([]float64, bigN), make([]float64, bigN)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	d := medianTime(nil, func() { ch.SolveVecInto(dst, b) })
	rep.set(fmt.Sprintf("linalg.solve_us_n%d", bigN), "us", us(d), probeReps)
	return nil
}

// gpProbes times the surrogate tiers through the selector the tuners use,
// with the fit options iTuned passes: no hyperparameter search on the exact
// tier past 60 points, a search on the sparse and RFF tiers.
func gpProbes(rep *report, xs [][]float64, ys []float64, seed int64) error {
	sel := tune.NewSurrogateSelector(nil)
	fit := func(tier string, n int) (gp.Surrogate, time.Duration, error) {
		var m gp.Surrogate
		var ferr error
		d := medianTime(nil, func() {
			m = sel.New(gp.Matern52, tier, seed)
			if err := m.Fit(xs[:n], ys[:n], tier != tune.SurrogateExact); err != nil {
				ferr = err
			}
		})
		return m, d, ferr
	}
	exact, d, err := fit(tune.SurrogateExact, exactN)
	if err != nil {
		return fmt.Errorf("probe exact fit: %w", err)
	}
	rep.set("gp.fit_ms_exact_n160", "ms", ms(d), probeReps)
	sparse, d, err := fit(tune.SurrogateSparse, sparseN)
	if err != nil {
		return fmt.Errorf("probe sparse fit: %w", err)
	}
	rep.set("gp.fit_ms_sparse_n300", "ms", ms(d), probeReps)
	if _, d, err = fit(tune.SurrogateRFF, sparseN); err != nil {
		return fmt.Errorf("probe rff fit: %w", err)
	}
	rep.set("gp.fit_ms_rff_n300", "ms", ms(d), probeReps)

	var grown gp.Surrogate
	var aerr error
	d = medianTime(func() {
		grown = sel.New(gp.Matern52, tune.SurrogateExact, seed)
		aerr = grown.Fit(xs[:exactN-1], ys[:exactN-1], false)
	}, func() {
		if err := grown.Append(xs[exactN-1], ys[exactN-1]); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return fmt.Errorf("probe exact append: %w", aerr)
	}
	rep.set("gp.append_us_exact_n160", "us", us(d), probeReps)

	// The screening pass of one iTuned round: 48 uniform candidates.
	rng := rand.New(rand.NewSource(seed))
	cands := make([][]float64, 48)
	for i := range cands {
		cands[i] = make([]float64, len(xs[0]))
		for c := range cands[i] {
			cands[i][c] = rng.Float64()
		}
	}
	best := math.Inf(1)
	for _, y := range ys {
		best = math.Min(best, y)
	}
	var scores []float64
	d = medianTime(nil, func() { scores = exact.ScoreCandidates(cands, best, scores) })
	rep.set("gp.score_us_exact_n160", "us", us(d), probeReps)
	d = medianTime(nil, func() { scores = sparse.ScoreCandidates(cands, best, scores) })
	rep.set("gp.score_us_sparse_n300", "us", us(d), probeReps)
	return nil
}

// wrapperStacks are the scenario and transfer wrappers Spec.JobWithWarm can
// put around a tuner; each gets one extra decorated iTuned session so its
// Propose cost is on record next to the bare tuner's.
var wrapperStacks = []struct {
	name string
	edit func(*repro.Spec)
}{
	{"guardrail", func(s *repro.Spec) { s.Guardrail = 1200 }},
	{"pareto", func(s *repro.Spec) { s.Pareto = true }},
	{"drift", func(s *repro.Spec) { s.DriftDetect = true }},
	{"hyperband", func(s *repro.Spec) { s.Fidelity = &repro.FidelitySpec{Strategy: "hyperband"} }},
	{"warmstart", func(s *repro.Spec) { s.WarmStart = true }},
}

// wrapperProbes runs one decorated 120-trial iTuned session on dbms/tpch per
// wrapper stack, against a three-record repository so the warm start has
// something to transfer.
func (h *harness) wrapperProbes(ctx context.Context, rep *report, seed int64) error {
	dir := filepath.Join(h.scratch, fmt.Sprintf("wrap-%d", time.Now().UnixNano()))
	if _, err := buildCorpus(ctx, dir, seed, len(dbmsCycle)); err != nil {
		return err
	}
	env, err := newInproc(&workload{}, dir)
	if err != nil {
		return err
	}
	defer env.close()
	for i, ws := range wrapperStacks {
		spec := repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned",
			Seed: sessionSeed(seed, warmBase+i), Budget: repro.Budget{Trials: 120}}
		ws.edit(&spec)
		tr := newTracer()
		if out := env.runSpec(ctx, tr, spec, i); out.err != nil {
			return fmt.Errorf("wrapper probe %s: %w", ws.name, out.err)
		}
		st := statsOf(tr.spans, "tune.propose")
		rep.set("tune.wrap_"+ws.name+"_propose_us_p50", "us", st.quantile(0.5, time.Microsecond), st.n)
	}
	return nil
}

// zeroTarget evaluates in no time, so a session on it measures only what
// the engine spends dispatching, recording and publishing a trial.
type zeroTarget struct {
	space *tune.Space
	runs  atomic.Int64
}

func (z *zeroTarget) Name() string                              { return "zero/none" }
func (z *zeroTarget) Space() *tune.Space                        { return z.space }
func (z *zeroTarget) Run(tune.Config) tune.Result               { return tune.Result{Time: 1} }
func (z *zeroTarget) ReserveRuns(n int64) int64                 { return z.runs.Add(n) - n + 1 }
func (z *zeroTarget) RunIndexed(int64, tune.Config) tune.Result { return tune.Result{Time: 1} }

// fixedTuner proposes the same configuration in batches of eight — the
// batch an 8-trial random session evaluates — at no cost of its own.
type fixedTuner struct{ cfg tune.Config }

func (f fixedTuner) Name() string { return "fixed" }
func (f fixedTuner) Tune(ctx context.Context, t tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	return tune.DriveProposer(ctx, f.Name(), t, b, f)
}
func (f fixedTuner) NewProposer(tune.Target, tune.Budget) (tune.Proposer, error) { return f, nil }
func (f fixedTuner) Observe(tune.Trial)                                          {}
func (f fixedTuner) Propose(n int) []tune.Config {
	if n > 8 {
		n = 8
	}
	out := make([]tune.Config, n)
	for i := range out {
		out[i] = f.cfg
	}
	return out
}

// zeroTargetTrials is long enough that the per-trial figure is not the
// session's fixed cost, and longer than the event ring, so eviction is in it.
const zeroTargetTrials = 16000

// engineProbes measures the engine's own cost per trial at 1 and 2 trial
// workers, over the space of the workload's first session.
func engineProbes(ctx context.Context, rep *report, w *workload, seed int64) error {
	spec := w.spec(seed, 0)
	target, err := repro.NewTarget(spec.System, spec.Workload, spec.Seed, spec.Target)
	if err != nil {
		return err
	}
	eng := repro.NewEngine(repro.EngineOptions{Workers: 1})
	for _, workers := range []int{1, 2} {
		d := medianTime(nil, func() {
			zt := &zeroTarget{space: target.Space()}
			run := eng.SubmitContext(ctx, repro.Job{Name: "zero", Tuner: fixedTuner{zt.space.Default()}, Target: zt,
				Budget: repro.Budget{Trials: zeroTargetTrials}, Parallel: workers})
			if _, rerr := run.Wait(ctx); rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			return fmt.Errorf("zero-target probe: %w", err)
		}
		name := "engine.zero_target_us_per_trial"
		if workers > 1 {
			name += fmt.Sprintf("_w%d", workers)
		}
		rep.set(name, "us", us(d)/zeroTargetTrials, probeReps)
	}
	return nil
}

// storeProbes times the repository's read path on the built corpus, before
// any session has touched it: the first lookup pays the lazy index build,
// the rest are plain indexed lookups with the queries the workload issues.
func storeProbes(rep *report, env *inproc, seed int64) error {
	q, err := nearestQuery(seed, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, ok := env.st.Nearest("dbms", q); !ok {
		return fmt.Errorf("store probe: the corpus has no dbms session")
	}
	rep.set("store.index_build_ms", "ms", ms(time.Since(t0)), 1)
	const lookups = 1024
	d := make([]float64, lookups)
	for i := range d {
		if q, err = nearestQuery(seed, warmBase+i); err != nil {
			return err
		}
		t0 := time.Now()
		env.st.Nearest("dbms", q)
		d[i] = us(time.Since(t0))
	}
	d = sortedCopy(d)
	rep.setPercentile("store.nearest_us_p50", "us", d, 0.50)
	rep.setPercentile("store.nearest_us_p99", "us", d, 0.99)
	return nil
}
