package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/workload"
)

func dbmsTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

// tuneJob runs job on a fresh engine and returns its result.
func tuneJob(t testing.TB, job Job) *tune.TuningResult {
	t.Helper()
	res, err := New(Options{}).Submit(job).Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// proposing presents a bare proposer — a tune.Proposer or a
// tune.FidelityProposer — as a tuner whose one session it drives, so tests
// run hand-written proposal sequences through a Job like any session.
func proposing(p any) tune.Tuner {
	fp, ok := p.(tune.FidelityProposer)
	if !ok {
		fp = tune.LiftProposer(p.(tune.Proposer))
	}
	return proposerTuner{fp}
}

type proposerTuner struct{ fp tune.FidelityProposer }

func (p proposerTuner) Name() string { return "stub" }
func (p proposerTuner) NewFidelityProposer(tune.Target, tune.Budget) (tune.FidelityProposer, error) {
	return p.fp, nil
}

// driveInline runs one session of an ask/tell tuner through tune.Drive with
// the inline evaluator and no engine: the reference every engine path must
// reproduce.
func driveInline(ctx context.Context, tuner tune.Tuner, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	var fp tune.FidelityProposer
	var err error
	switch t := tuner.(type) {
	case tune.FidelityBatchTuner:
		fp, err = t.NewFidelityProposer(target, b)
	case tune.BatchTuner:
		var p tune.Proposer
		if p, err = t.NewProposer(target, b); err == nil {
			fp = tune.LiftProposer(p)
		}
	}
	if err != nil {
		return nil, err
	}
	return tune.Drive(ctx, tuner.Name(), target, b, fp, tune.Inline(tune.Resolve(target)), nil)
}

// sameResult asserts two tuning results have identical trial sequences and
// incumbents.
func sameResult(t *testing.T, a, b *tune.TuningResult, label string) {
	t.Helper()
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial counts differ: %d vs %d", label, len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		if a.Trials[i].Config.String() != b.Trials[i].Config.String() {
			t.Fatalf("%s: trial %d configs differ:\n  %s\n  %s",
				label, i+1, a.Trials[i].Config, b.Trials[i].Config)
		}
		if a.Trials[i].Result.Time != b.Trials[i].Result.Time {
			t.Fatalf("%s: trial %d times differ: %v vs %v",
				label, i+1, a.Trials[i].Result.Time, b.Trials[i].Result.Time)
		}
	}
	if a.Best.String() != b.Best.String() {
		t.Fatalf("%s: best configs differ:\n  %s\n  %s", label, a.Best, b.Best)
	}
}

// TestDriveDeterministicAcrossWorkers is the core engine guarantee: for a
// fixed seed, parallel and sequential evaluation report identical trials
// and the same best configuration.
func TestDriveDeterministicAcrossWorkers(t *testing.T) {
	b := tune.Budget{Trials: 20}
	run := func(workers int) *tune.TuningResult {
		return tuneJob(t, Job{Tuner: experiment.NewITuned(7), Target: dbmsTarget(7), Budget: b, Parallel: workers})
	}
	seq := run(1)
	if len(seq.Trials) == 0 {
		t.Fatal("no trials recorded")
	}
	for _, workers := range []int{2, 4, 8} {
		sameResult(t, seq, run(workers), "workers=1 vs parallel")
	}
}

// TestDriveMatchesSequentialFacade: with the cache disabled, the engine's
// parallel driver reproduces the inline drive loop exactly — run-index
// reservation hands each trial the same noise stream inline evaluation
// would have drawn.
func TestDriveMatchesSequentialFacade(t *testing.T) {
	ctx := context.Background()
	b := tune.Budget{Trials: 18}
	facade, err := driveInline(ctx, experiment.NewITuned(11), dbmsTarget(11), b)
	if err != nil {
		t.Fatal(err)
	}
	parallel := tuneJob(t, Job{Tuner: experiment.NewITuned(11), Target: dbmsTarget(11), Budget: b, Parallel: 4})
	sameResult(t, facade, parallel, "facade vs engine")
}

// TestRunJobsMatchesSequential: the multi-session scheduler returns, in
// order, exactly what running each job alone would return.
func TestRunJobsMatchesSequential(t *testing.T) {
	ctx := context.Background()
	b := tune.Budget{Trials: 10}
	mk := func() []Job {
		var jobs []Job
		for i := int64(0); i < 6; i++ {
			jobs = append(jobs, Job{
				Name:   "job",
				Tuner:  &experiment.Random{Seed: 100 + i},
				Target: dbmsTarget(200 + i),
				Budget: b,
			})
		}
		return jobs
	}
	parallel := New(Options{Workers: 4}).RunJobs(ctx, mk())
	sequential := New(Options{Workers: 1}).RunJobs(ctx, mk())
	if len(parallel) != len(sequential) {
		t.Fatalf("result counts differ")
	}
	for i := range parallel {
		if parallel[i].Err != nil || sequential[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, parallel[i].Err, sequential[i].Err)
		}
		sameResult(t, sequential[i].Result, parallel[i].Result, "scheduler job")
	}
}

// countingTarget counts real executions behind a trivial space.
type countingTarget struct {
	space *tune.Space
	runs  atomic.Int64
	calls atomic.Int64
}

func newCountingTarget() *countingTarget {
	return &countingTarget{space: tune.NewSpace(tune.Float("a", 0, 1, 0.5))}
}

func (c *countingTarget) Name() string       { return "stub/count" }
func (c *countingTarget) Space() *tune.Space { return c.space }
func (c *countingTarget) Run(cfg tune.Config) tune.Result {
	return c.RunIndexed(c.ReserveRuns(1), cfg)
}
func (c *countingTarget) ReserveRuns(n int64) int64 { return c.runs.Add(n) - n + 1 }
func (c *countingTarget) RunIndexed(i int64, cfg tune.Config) tune.Result {
	c.calls.Add(1)
	return tune.Result{Time: 1 + cfg.Float("a")}
}

// repeatProposer proposes the same configuration forever.
type repeatProposer struct{ cfg tune.Config }

func (p *repeatProposer) Propose(n int) []tune.Config {
	out := make([]tune.Config, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.cfg)
	}
	return out
}
func (p *repeatProposer) Observe(tune.Trial) {}

// TestRepeatedProposalCostsOneRunEach: every recorded trial is one real
// run, so repeated proposals of one configuration cost one run apiece.
func TestRepeatedProposalCostsOneRunEach(t *testing.T) {
	tgt := newCountingTarget()
	tuneJob(t, Job{Tuner: proposing(&repeatProposer{cfg: tgt.space.Default()}), Target: tgt, Budget: tune.Budget{Trials: 8}, Parallel: 4})
	if got := tgt.calls.Load(); got != 8 {
		t.Errorf("%d real runs for 8 trials, want 8", got)
	}
}

// TestSimTimeBudgetMatchesFacadeAndBoundsWaste: with a sim-time budget
// the engine records exactly the trials the sequential facade records,
// and evaluates at most one worker-sized chunk past the cut.
func TestSimTimeBudgetMatchesFacadeAndBoundsWaste(t *testing.T) {
	ctx := context.Background()
	b := tune.Budget{Trials: 1000, SimTime: 5}

	facadeTarget := newCountingTarget()
	facade, err := tune.DriveProposer(ctx, "stub", facadeTarget, b, &repeatProposer{cfg: facadeTarget.space.Default()})
	if err != nil {
		t.Fatal(err)
	}

	engTarget := newCountingTarget()
	eng := tuneJob(t, Job{Tuner: proposing(&repeatProposer{cfg: engTarget.space.Default()}), Target: engTarget, Budget: b, Parallel: 4})
	sameResult(t, facade, eng, "simtime facade vs engine")
	if eng.SimTimeUsed > b.SimTime+2 { // each stub trial costs 1.5
		t.Errorf("engine overspent sim time: %v", eng.SimTimeUsed)
	}
	waste := engTarget.calls.Load() - int64(len(eng.Trials))
	if waste < 0 || waste >= 4 {
		t.Errorf("engine wasted %d runs past the cut, want < 4 (one chunk)", waste)
	}

	// The fidelity case: one wide low-fidelity rung on a target that ignores
	// cancellation (as the bundled sysmodels do). The cut lands mid-rung and
	// the same bound holds — the rest of the rung is never evaluated.
	rung := func(tgt *countingFidelityTarget) *scriptedRungs {
		cands := make([]tune.Candidate, 200)
		for i := range cands {
			cands[i] = tune.Candidate{Config: tgt.space.Default(), Fidelity: 0.5}
		}
		return &scriptedRungs{rungs: [][]tune.Candidate{cands}}
	}
	facadeFid := &countingFidelityTarget{countingTarget: newCountingTarget()}
	facade, err = driveInline(ctx, proposing(rung(facadeFid)), facadeFid, b)
	if err != nil {
		t.Fatal(err)
	}
	engFid := &countingFidelityTarget{countingTarget: newCountingTarget()}
	eng = tuneJob(t, Job{Tuner: proposing(rung(engFid)), Target: engFid, Budget: b, Parallel: 4})
	sameResult(t, facade, eng, "simtime fidelity facade vs engine")
	if n := len(eng.Trials); n == 0 || n >= 200 {
		t.Fatalf("fidelity session recorded %d of 200 rung members; the cut should land mid-rung", n)
	}
	if waste := engFid.calls.Load() - int64(len(eng.Trials)); waste < 0 || waste >= 4 {
		t.Errorf("engine wasted %d fidelity runs past the cut, want < 4", waste)
	}
	if waste := facadeFid.calls.Load() - int64(len(facade.Trials)); waste != 0 {
		t.Errorf("inline evaluation wasted %d runs past the cut, want 0", waste)
	}
}

// countingFidelityTarget adds a low-fidelity path (cost linear in the
// fraction, context ignored) to countingTarget.
type countingFidelityTarget struct{ *countingTarget }

func (c *countingFidelityTarget) RunFidelity(ctx context.Context, f float64, cfg tune.Config) tune.Result {
	return c.RunIndexedFidelity(ctx, c.ReserveRuns(1), f, cfg)
}
func (c *countingFidelityTarget) RunIndexedFidelity(_ context.Context, _ int64, f float64, cfg tune.Config) tune.Result {
	c.calls.Add(1)
	return tune.Result{Time: f * (1 + cfg.Float("a"))}
}

// scriptedRungs is a FidelityProposer handing out prepared rungs, one per
// ProposeFidelity call, and pruning nothing.
type scriptedRungs struct{ rungs [][]tune.Candidate }

func (p *scriptedRungs) ProposeFidelity(n int) []tune.Candidate {
	if len(p.rungs) == 0 {
		return nil
	}
	out := p.rungs[0]
	p.rungs = p.rungs[1:]
	return out[:min(n, len(out))]
}
func (p *scriptedRungs) ObserveFidelity(tune.Trial) {}
func (p *scriptedRungs) PruneNotices() []int        { return nil }

// TestTunerWithoutAFormIsRefused: a tuner the engine has no way to drive
// fails its session with tune.CheckTuner's refusal — the one a job build
// reports — instead of running.
func TestTunerWithoutAFormIsRefused(t *testing.T) {
	job := Job{Tuner: nameOnly{}, Target: dbmsTarget(1), Budget: tune.Budget{Trials: 3}}
	want := tune.CheckTuner(job.Tuner, job.Target, job.Budget)
	if want == nil {
		t.Fatal("CheckTuner accepted a tuner with no form")
	}
	if _, err := New(Options{}).Submit(job).Wait(nil); err == nil || err.Error() != want.Error() {
		t.Fatalf("session ended with %v, want %v", err, want)
	}
}

type nameOnly struct{}

func (nameOnly) Name() string { return "name-only" }

// TestDriveReportsCancellation: a cancelled context is an error on both
// the engine path and the inline drive loop, never a short success.
func TestDriveReportsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := tune.Budget{Trials: 10}
	if _, err := New(Options{}).SubmitContext(ctx, Job{Tuner: experiment.NewITuned(1), Target: dbmsTarget(1), Budget: b, Parallel: 4}).Wait(nil); err != context.Canceled {
		t.Errorf("engine path: got %v, want context.Canceled", err)
	}
	if _, err := driveInline(ctx, experiment.NewITuned(1), dbmsTarget(1), b); err != context.Canceled {
		t.Errorf("inline path: got %v, want context.Canceled", err)
	}
}

// BenchmarkDrive measures the wall-clock effect of worker parallelism on
// one iTuned session (the acceptance benchmark for the engine).
func BenchmarkDrive(b *testing.B) {
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "workers=1", 4: "workers=4"}[workers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tuneJob(b, Job{Tuner: experiment.NewITuned(int64(i)), Target: dbmsTarget(int64(i)),
					Budget: tune.Budget{Trials: 24}, Parallel: workers})
			}
		})
	}
}

// oneAtATime proposes one configuration per batch, so a session of n trials
// crosses n batch boundaries.
type oneAtATime struct{ cfg tune.Config }

func (p *oneAtATime) Propose(int) []tune.Config { return []tune.Config{p.cfg} }
func (p *oneAtATime) Observe(tune.Trial)        {}

// yieldProbe notes, at its third evaluation, whether the goroutine the test
// left runnable has run yet. (Not the second: every 61st pass of the
// scheduler takes the yielding goroutine straight back off the global queue.)
type yieldProbe struct {
	*countingTarget
	ran   *atomic.Bool
	third bool
}

func (y *yieldProbe) Run(cfg tune.Config) tune.Result {
	if y.calls.Load() == 2 {
		y.third = y.ran.Load()
	}
	return y.countingTarget.Run(cfg)
}

// TestInlineSessionYieldsAtBatchBoundaries: a one-slot session evaluates
// inline and never blocks, so the engine yields the processor at each batch
// boundary. On one processor, a goroutine made runnable before the session
// starts has therefore run by the session's third batch; without the yield
// it waits for the 10 ms preemption tick or the session's end — which is how
// a daemon with a session on every core starved its event handlers and the
// collector's mark worker.
func TestInlineSessionYieldsAtBatchBoundaries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ran atomic.Bool
	target := &yieldProbe{countingTarget: newCountingTarget(), ran: &ran}
	go ran.Store(true) // runnable, not running: this goroutine holds the only processor
	// On the test goroutine, not a run's: Submit's goroutine handoff would
	// itself let the probe run.
	job := Job{Tuner: proposing(&oneAtATime{cfg: target.space.Default()}), Target: target, Budget: tune.Budget{Trials: 4}}
	if _, err := job.tune(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !target.third {
		t.Fatal("the session reached its third batch without yielding the processor")
	}
}
