package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tune"
	"repro/internal/tuners/experiment"
)

// mirrorBackend is a RemoteBackend that evaluates against its own
// same-seed target instance — the in-process stand-in for an evaluator
// process that rebuilt the target from the assignment's sysmodel.
type mirrorBackend struct {
	ct    tune.FidelityTarget
	slots int
	calls atomic.Int64
}

func (b *mirrorBackend) Slots() int { return b.slots }
func (b *mirrorBackend) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	b.calls.Add(1)
	if f <= 0 || f >= 1 {
		return b.ct.RunIndexed(idx, cfg), nil
	}
	return b.ct.RunIndexedFidelity(ctx, idx, f, cfg), nil
}

// TestRemoteBackendMatchesLocal: mixing remote slots into the batch
// fan-out changes nothing about the result — remote evaluation is pure in
// (seed, run index, config), so local-only and mixed dispatch coincide.
func TestRemoteBackendMatchesLocal(t *testing.T) {
	b := tune.Budget{Trials: 20}
	local := tuneJob(t, Job{Tuner: experiment.NewITuned(7), Target: dbmsTarget(7), Budget: b, Parallel: 2})
	back := &mirrorBackend{ct: dbmsTarget(7), slots: 3}
	mixed := tuneJob(t, Job{Tuner: experiment.NewITuned(7), Target: dbmsTarget(7), Budget: b, Parallel: 2, Remote: back})
	sameResult(t, local, mixed, "local vs mixed remote")
	if back.calls.Load() == 0 {
		t.Fatal("remote backend was never used")
	}
}

// TestRemoteFidelityMatchesLocal extends the same guarantee to the
// multi-fidelity driver: rung batches leased to remote slots produce the
// identical trial sequence, including partial-fidelity screens.
func TestRemoteFidelityMatchesLocal(t *testing.T) {
	b := tune.Budget{Trials: 40}
	run := func(remote RemoteBackend) *tune.TuningResult {
		mf, err := tune.NewMultiFidelity(experiment.NewITuned(7), tune.StrategyHyperband, 7)
		if err != nil {
			t.Fatal(err)
		}
		return tuneJob(t, Job{Tuner: mf, Target: dbmsTarget(7), Budget: b, Parallel: 2, Remote: remote})
	}
	local := run(nil)
	back := &mirrorBackend{ct: dbmsTarget(7), slots: 3}
	sameResult(t, local, run(back), "local vs mixed remote fidelity")
	if back.calls.Load() == 0 {
		t.Fatal("remote backend was never used")
	}
}

// failingBackend loses every evaluation it is handed.
type failingBackend struct {
	slots   int
	calls   atomic.Int64
	release chan struct{} // closed on first loss, if non-nil
	once    sync.Once
}

func (b *failingBackend) Slots() int { return b.slots }
func (b *failingBackend) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	b.calls.Add(1)
	if b.release != nil {
		b.once.Do(func() { close(b.release) })
	}
	return tune.Result{}, &EvaluationLostError{RunIndex: idx, Attempts: 3, Last: errors.New("connection refused")}
}

// gatedConcurrentTarget blocks indexed evaluations until release closes —
// it pins the local worker so a remote slot is guaranteed to claim work.
type gatedConcurrentTarget struct {
	*countingTarget
	release chan struct{}
}

func (g *gatedConcurrentTarget) RunIndexed(i int64, cfg tune.Config) tune.Result {
	<-g.release
	return g.countingTarget.RunIndexed(i, cfg)
}

// TestEvaluationLostSurfacesThroughWait (satellite of the fleet subsystem):
// a remote evaluation lost beyond recovery fails the session with an error
// distinguishable from an ordinary failed trial — errors.Is ErrEvaluationLost
// — delivered through Run.Wait, and the run lands in RunFailed.
func TestEvaluationLostSurfacesThroughWait(t *testing.T) {
	release := make(chan struct{})
	back := &failingBackend{slots: 2, release: release}
	gt := &gatedConcurrentTarget{countingTarget: newCountingTarget(), release: release}
	e := New(Options{Workers: 1})
	run := e.Submit(Job{
		Name: "lost", Tuner: &experiment.Random{Seed: 5}, Target: gt,
		Budget: tune.Budget{Trials: 6}, Parallel: 1, Remote: back,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := run.Wait(ctx)
	if err == nil {
		t.Fatal("session with only lost remote evaluations succeeded")
	}
	if !errors.Is(err, ErrEvaluationLost) {
		t.Fatalf("err = %v, want errors.Is ErrEvaluationLost", err)
	}
	var lost *EvaluationLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want an *EvaluationLostError in the chain", err)
	}
	if lost.Attempts != 3 {
		t.Fatalf("lost.Attempts = %d, want 3", lost.Attempts)
	}
	if run.State() != RunFailed {
		t.Fatalf("state = %q, want %q", run.State(), RunFailed)
	}
}

// flakyBackend models a fleet in trouble: per evaluation (keyed by run
// index, so behavior is deterministic and race-free) it either succeeds,
// stalls briefly before losing the lease, or loses it immediately.
type flakyBackend struct {
	ct    tune.Target
	slots int
	seed  int64
}

func (b *flakyBackend) Slots() int { return b.slots }
func (b *flakyBackend) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	switch (idx*2654435761 + b.seed) % 4 {
	case 0:
		return tune.Result{}, &EvaluationLostError{RunIndex: idx, Attempts: 2, Last: errors.New("lease lost")}
	case 1:
		// A stalled lease: bounded by the pool's heartbeat timeout in real
		// deployments, or cut short by rung/session cancellation.
		select {
		case <-ctx.Done():
			return tune.Result{}, ctx.Err()
		case <-time.After(10 * time.Millisecond):
			return tune.Result{}, &EvaluationLostError{RunIndex: idx, Attempts: 2, Last: errors.New("heartbeat timeout")}
		}
	default:
		return b.ct.RunIndexed(idx, cfg), nil
	}
}

// TestRemoteLossNeverLeaksSchedulerSlots is the slot-accounting property:
// across randomized pause/resume/stop interleavings over sessions whose
// remote leases are being lost, Wait stays bounded, every scheduler slot
// comes back, and the engine still runs fresh work afterwards.
func TestRemoteLossNeverLeaksSchedulerSlots(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := New(Options{Workers: 2})
			var runs []*Run
			for j := int64(0); j < 3; j++ {
				runs = append(runs, e.Submit(Job{
					Name:  fmt.Sprintf("flaky-%d", j),
					Tuner: &experiment.Random{Seed: seed + j}, Target: dbmsTarget(seed + j),
					Budget: tune.Budget{Trials: 8}, Parallel: 2,
					Remote: &flakyBackend{ct: dbmsTarget(seed + j), slots: 2, seed: seed},
				}))
			}
			for i := 0; i < 12; i++ {
				r := runs[rng.Intn(len(runs))]
				switch rng.Intn(4) {
				case 0:
					r.Pause()
				case 1:
					r.Resume()
				case 2:
					r.Stop()
				case 3:
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				}
			}
			for _, r := range runs {
				r.Resume() // no run may be left parked in a pause
				if _, err := r.Wait(ctx); errors.Is(err, context.DeadlineExceeded) {
					t.Fatal("Wait did not stay bounded under lease loss")
				}
			}
			if n := len(e.sem); n != 0 {
				t.Fatalf("%d scheduler slots still held after all runs finished", n)
			}
			fresh := e.Submit(Job{
				Name: "fresh", Tuner: &experiment.Random{Seed: 99}, Target: dbmsTarget(99),
				Budget: tune.Budget{Trials: 2},
			})
			if _, err := fresh.Wait(ctx); err != nil {
				t.Fatalf("engine cannot run fresh work after lease-loss sessions: %v", err)
			}
		})
	}
}
