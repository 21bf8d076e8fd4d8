package engine

import (
	"context"
	"fmt"
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

// TestMemoCacheDeduplicates: repeated proposals of one configuration cost
// one real run with the cache on, one per trial with it off — and the
// session still records every trial either way.
func TestMemoCacheDeduplicates(t *testing.T) {
	b := tune.Budget{Trials: 8}

	cached := newCountingTarget()
	r := tuneJob(t, Job{Tuner: proposing(&repeatProposer{cfg: cached.space.Default()}), Target: cached, Budget: b, Parallel: 4, Memo: true})
	if got := cached.calls.Load(); got != 1 {
		t.Errorf("cache on: %d real runs, want 1", got)
	}
	if len(r.Trials) != 8 {
		t.Errorf("cache on: %d trials recorded, want 8", len(r.Trials))
	}

	uncached := newCountingTarget()
	tuneJob(t, Job{Tuner: proposing(&repeatProposer{cfg: uncached.space.Default()}), Target: uncached, Budget: b, Parallel: 4})
	if got := uncached.calls.Load(); got != 8 {
		t.Errorf("cache off (default): %d real runs, want 8", got)
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

// TestMemoKeyedByConfigAndFidelity: with the memo on, a repeated (config,
// fidelity) candidate costs one real run — within a rung and across rungs —
// while the same configuration at a different fidelity is a miss; every
// trial is still recorded, stamped with its own fidelity.
func TestMemoKeyedByConfigAndFidelity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tgt := &countingFidelityTarget{countingTarget: newCountingTarget()}
		a, b := tgt.space.Default(), tgt.space.Default().With("a", 0.25)
		at := func(cfg tune.Config, f float64) tune.Candidate { return tune.Candidate{Config: cfg, Fidelity: f} }
		fp := &scriptedRungs{rungs: [][]tune.Candidate{
			{at(a, 1.0/3), at(b, 1.0/3), at(a, 1.0/3)}, // in-rung duplicate of a@⅓
			{at(a, 1), at(a, 1.0/3), at(b, 1)},         // a@1 and b@1 are new; a@⅓ is a hit
			{at(a, 0), at(b, 1.0/3)},                   // 0 and 1 both mean full fidelity: two hits
		}}
		res := tuneJob(t, Job{Tuner: proposing(fp), Target: tgt, Budget: tune.Budget{Trials: 20}, Parallel: workers, Memo: true})
		if got := tgt.calls.Load(); got != 4 {
			t.Errorf("workers=%d: %d real runs, want 4 (a@⅓, b@⅓, a@1, b@1)", workers, got)
		}
		if len(res.Trials) != 8 {
			t.Fatalf("workers=%d: %d trials recorded, want 8", workers, len(res.Trials))
		}
		wantFid := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3, 0, 1.0 / 3, 0, 0, 1.0 / 3}
		for i, tr := range res.Trials {
			if tr.Result.Fidelity != wantFid[i] {
				t.Errorf("workers=%d: trial %d stamped fidelity %v, want %v", workers, i+1, tr.Result.Fidelity, wantFid[i])
			}
		}
		if res.Trials[0].Result.Time != res.Trials[2].Result.Time || res.Trials[0].Result.Time != res.Trials[4].Result.Time {
			t.Errorf("workers=%d: repeated a@⅓ trials differ: %v", workers, res.Trials)
		}
		if res.Trials[0].Result.Time == res.Trials[3].Result.Time {
			t.Errorf("workers=%d: a@1 returned the a@⅓ result — the memo ignored fidelity", workers)
		}
	}
}

// cyclingProposer proposes `distinct` configurations round-robin, up to four
// per batch, so a session longer than `distinct` trials repeats each one.
type cyclingProposer struct {
	space    *tune.Space
	distinct int
	n        int
}

func (p *cyclingProposer) Propose(n int) []tune.Config {
	out := make([]tune.Config, 0, min(n, 4))
	for range cap(out) {
		out = append(out, p.space.FromVector([]float64{float64(p.n%p.distinct) / float64(p.distinct)}))
		p.n++
	}
	return out
}
func (p *cyclingProposer) Observe(tune.Trial) {}

// TestEngineMemoDeterministicAcrossWorkers: with the memo on, the recorded
// trials are identical at any worker count — hits and stores happen in
// batch order on the driver goroutine.
func TestEngineMemoDeterministicAcrossWorkers(t *testing.T) {
	b := tune.Budget{Trials: 24}
	run := func(workers int) *tune.TuningResult {
		tgt := newCountingTarget()
		return tuneJob(t, Job{Tuner: proposing(&cyclingProposer{space: tgt.space, distinct: 3}), Target: tgt, Budget: b, Parallel: workers, Memo: true})
	}
	seq := run(1)
	for _, w := range []int{2, 8} {
		sameResult(t, seq, run(w), fmt.Sprintf("memo workers=1 vs %d", w))
	}
}

// TestMemoHoldsAtMostTrialsPlusOne pins why the memo needs no bound: it
// stores one result per evaluated run (and a resume seeds it with replayed
// trials), so at every batch boundary it holds at most the session's
// recorded trials plus the one result a budget cut discards — fresh, at
// any worker count, and resumed from a checkpoint.
func TestMemoHoldsAtMostTrialsPlusOne(t *testing.T) {
	b := tune.Budget{Trials: 40}
	const distinct = 30 // thirty fresh configurations, then ten repeats
	for _, workers := range []int{1, 4} {
		var mid *tune.Replay // a checkpoint from the middle of the session
		ref := newCountingTarget()
		tuneJob(t, Job{Tuner: proposing(&cyclingProposer{space: ref.space, distinct: distinct}), Target: ref, Budget: b,
			Parallel: workers, Memo: true, Checkpoint: func(cs tune.CheckpointState) {
				if mid == nil && len(cs.Trials) >= b.Trials/2 {
					r := cs.Replay()
					mid = &r
				}
			}})
		if mid == nil {
			t.Fatalf("workers=%d: no checkpoint offered past trial %d", workers, b.Trials/2)
		}
		for _, replay := range []*tune.Replay{nil, mid} {
			label := fmt.Sprintf("workers=%d resumed=%v", workers, replay != nil)
			tgt := newCountingTarget()
			job := Job{Target: tgt, Budget: b, Parallel: workers, Memo: true, Replay: replay}
			ev, rep, err := job.evaluator(tune.Resolve(tgt))
			if err != nil {
				t.Fatal(err)
			}
			outer := ev
			if rep != nil {
				outer = rep.live
			}
			memo := outer.(*memoized).memo
			peak := 0
			check := func(trials int) {
				if len(memo) > trials+1 {
					t.Errorf("%s: the memo holds %d results after %d trials", label, len(memo), trials)
				}
				peak = max(peak, len(memo))
			}
			res, err := tune.Drive(context.Background(), "stub", tgt, b,
				tune.LiftProposer(&cyclingProposer{space: tgt.space, distinct: distinct}), ev,
				func(s *tune.Session) { check(len(s.Trials())) })
			if err != nil {
				t.Fatal(err)
			}
			check(len(res.Trials))
			if len(res.Trials) != b.Trials || peak != distinct {
				t.Errorf("%s: %d trials, the memo peaked at %d results; want %d and %d", label, len(res.Trials), peak, b.Trials, distinct)
			}
		}
	}
}

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
