package engine

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/workload"
)

func fidelityDBMS(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

func hyperbandITuned(t *testing.T, seed int64) *tune.MultiFidelityTuner {
	t.Helper()
	mf, err := tune.NewMultiFidelity(experiment.NewITuned(seed), tune.StrategyHyperband, seed)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestFidelityEngineMatchesSequentialDriver: the engine's parallel rung
// driver and the inline drive loop produce identical results for the same
// seed, including trial fidelities.
func TestFidelityEngineMatchesSequentialDriver(t *testing.T) {
	b := tune.Budget{Trials: 26}
	seq, err := driveInline(context.Background(), hyperbandITuned(t, 5), fidelityDBMS(5), b)
	if err != nil {
		t.Fatal(err)
	}
	par := tuneJob(t, Job{Tuner: hyperbandITuned(t, 5), Target: fidelityDBMS(5), Budget: b, Parallel: 4})
	sj, _ := json.Marshal(seq)
	pj, _ := json.Marshal(par)
	if string(sj) != string(pj) {
		t.Fatalf("parallel fidelity result differs from sequential:\nseq: %s\npar: %s", sj, pj)
	}
	partial := 0
	for _, tr := range par.Trials {
		if !tr.Result.FullFidelity() {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no partial-fidelity trials recorded")
	}
}

// TestFidelityRunHandleProgress: pruned trials and rung decisions surface
// through the run handle, and the event log carries TrialPruned entries
// between trial events.
func TestFidelityRunHandleProgress(t *testing.T) {
	eng := New(Options{Workers: 2})
	run := eng.Submit(Job{
		Name:  "fidelity",
		Tuner: hyperbandITuned(t, 7), Target: fidelityDBMS(7),
		Budget: tune.Budget{Trials: 24}, Parallel: 2,
	})
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	p := run.Progress()
	if p.TrialsPruned == 0 || p.RungsDecided == 0 {
		t.Fatalf("Progress reports %d pruned over %d rungs, want both positive", p.TrialsPruned, p.RungsDecided)
	}
	var seen int
	for _, ev := range run.History() {
		if ev.Kind == tune.TrialPruned {
			seen++
			if !ev.Config.Valid() || ev.Trial < 1 {
				t.Fatalf("malformed TrialPruned event: %+v", ev)
			}
		}
	}
	if seen != p.TrialsPruned {
		t.Fatalf("history holds %d TrialPruned events, progress reports %d", seen, p.TrialsPruned)
	}
}

// faultTarget is the fault-injection FidelityTarget: low-fidelity
// evaluations either fail or hang until their context is cancelled. Full
// runs behave normally so sessions have somewhere to converge.
type faultTarget struct {
	space *tune.Space
	runs  atomic.Int64
	hang  bool // hang low-fidelity evals until ctx is done (else fail them)

	hung     atomic.Int64 // evaluations currently blocked
	released atomic.Int64 // hung evaluations that returned on cancellation
}

func newFaultTarget(hang bool) *faultTarget {
	return &faultTarget{space: tune.NewSpace(tune.Float("x", 0, 1, 0.5)), hang: hang}
}

func (f *faultTarget) Name() string              { return "stub/faulty" }
func (f *faultTarget) Space() *tune.Space        { return f.space }
func (f *faultTarget) ReserveRuns(n int64) int64 { return f.runs.Add(n) - n + 1 }
func (f *faultTarget) Run(cfg tune.Config) tune.Result {
	return f.RunIndexed(f.ReserveRuns(1), cfg)
}
func (f *faultTarget) RunIndexed(i int64, cfg tune.Config) tune.Result {
	return tune.Result{Time: 10 + cfg.Float("x")}
}
func (f *faultTarget) RunFidelity(ctx context.Context, fid float64, cfg tune.Config) tune.Result {
	return f.RunIndexedFidelity(ctx, f.ReserveRuns(1), fid, cfg)
}
func (f *faultTarget) RunIndexedFidelity(ctx context.Context, _ int64, fid float64, cfg tune.Config) tune.Result {
	if fid >= 1 {
		return tune.Result{Time: 10 + cfg.Float("x")}
	}
	if !f.hang {
		return tune.Result{Time: fid, Failed: true, FailReason: "injected low-fidelity failure"}
	}
	f.hung.Add(1)
	<-ctx.Done()
	f.released.Add(1)
	return tune.Result{Time: fid, Failed: true, FailReason: "cancelled"}
}

// TestFidelityFailingLowRungsDoNotWedgeTheSchedule: a target whose every
// low-fidelity evaluation fails still completes the session — failed
// screens sort last, promotion still happens, and full-fidelity runs land
// the incumbent.
func TestFidelityFailingLowRungsDoNotWedgeTheSchedule(t *testing.T) {
	target := newFaultTarget(false)
	mf, err := tune.NewMultiFidelity(&experiment.Random{Seed: 9}, tune.StrategyHyperband, 9)
	if err != nil {
		t.Fatal(err)
	}
	res := tuneJob(t, Job{Tuner: mf, Target: target, Budget: tune.Budget{Trials: 25}, Parallel: 4})
	if !res.BestResult.FullFidelity() || res.BestResult.Failed {
		t.Fatalf("incumbent should be a successful full-fidelity run, got %+v", res.BestResult)
	}
}

// TestFidelityHangingEvalsCancelWithoutDeadlockOrSlotLeak is the
// fault-injection acceptance test: low-fidelity evaluations that hang until
// context cancellation must not deadlock the scheduler or leak its slots.
// Stop cancels the run; Wait must return within a bound, the hung workers
// must all be released, and the engine must still have capacity to run a
// fresh session afterwards.
func TestFidelityHangingEvalsCancelWithoutDeadlockOrSlotLeak(t *testing.T) {
	target := newFaultTarget(true)
	mf, err := tune.NewMultiFidelity(&experiment.Random{Seed: 11}, tune.StrategyHyperband, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 2})
	run := eng.Submit(Job{Name: "hang", Tuner: mf, Target: target, Budget: tune.Budget{Trials: 20}, Parallel: 4})

	// Wait until evaluations are actually blocked inside the target, then
	// stop the run.
	deadline := time.Now().Add(10 * time.Second)
	for target.hung.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no evaluation ever reached the hanging path")
		}
		time.Sleep(time.Millisecond)
	}
	run.Stop()

	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := run.Wait(waitCtx); err == nil {
		t.Fatal("a stopped session should fail with a cancellation error")
	} else if waitCtx.Err() != nil {
		t.Fatal("run.Wait did not return within the bound: scheduler deadlocked")
	}

	// Every hung evaluation was released by the cancellation.
	deadline = time.Now().Add(10 * time.Second)
	for target.released.Load() != target.hung.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("hung evaluations leaked: %d blocked, %d released",
				target.hung.Load(), target.released.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// The scheduler slot was returned: a fresh session on the same engine
	// completes.
	after := eng.Submit(Job{
		Name:  "after",
		Tuner: &experiment.Random{Seed: 12}, Target: fidelityDBMS(12),
		Budget: tune.Budget{Trials: 3},
	})
	waitCtx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if _, err := after.Wait(waitCtx2); err != nil {
		t.Fatalf("engine could not run a fresh session after the cancelled one: %v", err)
	}
}

// TestFidelityStopMidRungCancelsSuperfluousEvals: with a sim-time budget
// that exhausts mid-rung, dispatched-but-superfluous evaluations are
// cancelled instead of run to completion, and the recorded stream is
// identical at any worker count.
func TestFidelityStopMidRungCancelsSuperfluousEvals(t *testing.T) {
	stream := func(workers int) string {
		mf, err := tune.NewMultiFidelity(&experiment.Random{Seed: 3}, tune.StrategyHalving, 3)
		if err != nil {
			t.Fatal(err)
		}
		// The sim-time budget cuts the first rung after a few screens.
		res := tuneJob(t, Job{Tuner: mf, Target: fidelityDBMS(3), Budget: tune.Budget{Trials: 20, SimTime: 200}, Parallel: workers})
		j, _ := json.Marshal(res)
		return string(j)
	}
	if seq, par := stream(1), stream(4); seq != par {
		t.Fatalf("mid-rung sim-time cut differs across worker counts:\np1: %s\np4: %s", seq, par)
	}
}

// TestFidelityPauseGateHolds: pausing a fidelity run stops trial recording
// at the next boundary and resume completes the budget.
func TestFidelityPauseGateHolds(t *testing.T) {
	eng := New(Options{Workers: 2})
	run := eng.Submit(Job{
		Name:  "paused",
		Tuner: hyperbandITuned(t, 13), Target: fidelityDBMS(13),
		Budget: tune.Budget{Trials: 22}, Parallel: 2,
	})
	run.Pause()
	run.Resume()
	res, err := run.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 22 {
		t.Fatalf("ran %d trials, want the full 22", len(res.Trials))
	}
}

var _ tune.ConcurrentFidelityTarget = (*faultTarget)(nil)
