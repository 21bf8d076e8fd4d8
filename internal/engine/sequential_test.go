package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/tune"
	"repro/internal/tuners/experiment"
)

// failingEvaluator evaluates inline until its n-th batch, which errors.
type failingEvaluator struct {
	tune.Evaluator
	n int
}

func (e *failingEvaluator) Evaluate(ctx context.Context, batch []tune.Candidate, yield func(int, tune.Result) bool) error {
	if e.n--; e.n == 0 {
		return errors.New("evaluator lost")
	}
	return e.Evaluator.Evaluate(ctx, batch, yield)
}

// TestSequentialReleasesCoroutine: a tune.Sequential body is parked on a
// coroutine — a goroutine — between proposals, and no exit path of a session
// may leave it there. Every case ends a session over recursive random search
// (whose body is still mid-search whenever a session ends early) and the
// goroutine count has to come back to where it started.
func TestSequentialReleasesCoroutine(t *testing.T) {
	const seed = 23
	rrs := func(i int64) tune.BatchTuner { return &experiment.RRS{Seed: seed + i} }
	ctx := context.Background()
	mustTune := func(t *testing.T, tuner tune.Tuner, target tune.Target, b tune.Budget) *tune.TuningResult {
		t.Helper()
		return tuneJob(t, Job{Tuner: tuner, Target: target, Budget: b, Parallel: 2})
	}
	// cancelAfter cancels the returned context once n trials are done.
	cancelAfter := func(n int) (context.Context, context.CancelFunc) {
		cctx, cancel := context.WithCancel(ctx)
		return tune.WithMonitor(cctx, &tune.Monitor{OnEvent: func(ev tune.Event) {
			if ev.Kind == tune.TrialDone && ev.Trial == n {
				cancel()
			}
		}}), cancel
	}
	var shift pipelineRow
	for _, row := range pipelineRows() {
		if row.name == "drift_detect(rrs)" {
			shift = row
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"trial budget", func(t *testing.T) {
			if res := mustTune(t, rrs(0), dbmsTarget(seed), tune.Budget{Trials: 10}); len(res.Trials) != 10 {
				t.Fatalf("%d trials, want 10", len(res.Trials))
			}
		}},
		{"sim-time cut", func(t *testing.T) {
			if res := mustTune(t, rrs(0), dbmsTarget(seed), tune.Budget{Trials: 1000, SimTime: 2000}); len(res.Trials) >= 1000 {
				t.Fatal("the sim-time budget never cut the session")
			}
		}},
		{"Stop", func(t *testing.T) {
			run := New(Options{Workers: 1}).Submit(Job{Name: "stop", Tuner: rrs(0), Target: dbmsTarget(seed),
				Budget: tune.Budget{Trials: 50000}, Parallel: 2})
			for ev := range run.Events() {
				if ev.Kind == tune.TrialDone && ev.Trial == 5 {
					run.Stop()
				}
			}
			if _, err := run.Wait(nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("stopped run finished with %v", err)
			}
		}},
		{"context cancel", func(t *testing.T) {
			cctx, cancel := cancelAfter(4)
			defer cancel()
			if _, err := driveInline(cctx, rrs(0), dbmsTarget(seed), tune.Budget{Trials: 50000}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled session finished with %v", err)
			}
		}},
		{"evaluator error", func(t *testing.T) {
			target := dbmsTarget(seed)
			p, err := rrs(0).NewProposer(target, tune.Budget{Trials: 20})
			if err != nil {
				t.Fatal(err)
			}
			ev := &failingEvaluator{Evaluator: tune.Inline(tune.Resolve(target)), n: 4}
			if _, err := tune.Drive(ctx, "rrs", target, tune.Budget{Trials: 20}, tune.LiftProposer(p), ev, nil); err == nil {
				t.Fatal("the evaluator's error did not end the session")
			}
		}},
		{"never driven", func(t *testing.T) {
			if _, err := rrs(0).NewProposer(dbmsTarget(seed), tune.Budget{Trials: 20}); err != nil {
				t.Fatal(err)
			}
		}},
		{"drift re-anchor", func(t *testing.T) {
			tuner, target := shift.mk(t)
			if res := mustTune(t, tuner, target, tune.Budget{Trials: shift.trials}); res.DriftDetections == 0 {
				t.Fatal("no re-anchor: the inner proposer was never swapped")
			}
		}},
	}
	// Every wrapper, ended by its budget and cancelled mid-session.
	target := dbmsTarget(seed)
	guarded, err := tune.GuardrailTuner(rrs(0), 150)
	if err != nil {
		t.Fatal(err)
	}
	pareto, err := tune.MultiObjectiveTuner([]tune.BatchTuner{rrs(0), rrs(1), rrs(2), rrs(3)}, tune.DefaultParetoWeights)
	if err != nil {
		t.Fatal(err)
	}
	hyperband, err := tune.NewMultiFidelity(rrs(0), tune.StrategyHyperband, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		tuner tune.Tuner
	}{
		{"WarmStartTuner", tune.WarmStartTuner(rrs(0), []tune.Config{target.Space().Default()})},
		{"GuardrailTuner", guarded},
		{"MultiObjectiveTuner", pareto},
		{"DriftDetectTuner", tune.DriftDetectTuner(rrs(0))},
		{"NewMultiFidelity", hyperband},
	} {
		cases = append(cases, struct {
			name string
			run  func(t *testing.T)
		}{w.name, func(t *testing.T) {
			mustTune(t, w.tuner, dbmsTarget(seed), tune.Budget{Trials: 14})
			cctx, cancel := cancelAfter(6)
			defer cancel()
			if _, err := driveInline(cctx, w.tuner, dbmsTarget(seed), tune.Budget{Trials: 50000}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled session finished with %v", err)
			}
		}})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c.run(t)
			// Subscription pumps and pool workers exit on their own schedule;
			// a parked coroutine never would.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before, %d after:\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestSequentialReleasesCoroutineRace3(t *testing.T) { TestSequentialReleasesCoroutine(t) }
