package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/tune"
	"repro/internal/tuners/experiment"
)

// TestSubmitMatchesBlockingTune: the handle path returns exactly what the
// inline drive loop returns for the same seed.
func TestSubmitMatchesBlockingTune(t *testing.T) {
	b := tune.Budget{Trials: 12}
	blocking, err := driveInline(context.Background(), experiment.NewITuned(9), dbmsTarget(9), b)
	if err != nil {
		t.Fatal(err)
	}
	run := New(Options{Workers: 2}).Submit(Job{Name: "handle", Tuner: experiment.NewITuned(9), Target: dbmsTarget(9), Budget: b})
	handle, err := run.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, blocking, handle, "blocking vs handle")
	if run.State() != RunDone {
		t.Errorf("state = %s, want %s", run.State(), RunDone)
	}
}

// collectEvents drains a run's event stream to completion.
func collectEvents(t *testing.T, r *Run) []tune.Event {
	t.Helper()
	var out []tune.Event
	for ev := range r.Events() {
		out = append(out, ev)
	}
	return out
}

// TestEventSequenceByteIdenticalAcrossParallelism is the acceptance
// guarantee for the event model: for a fixed spec and seed, the marshaled
// TrialDone sequence — indeed the whole event log — is byte-identical at
// parallel 1 and parallel 4.
func TestEventSequenceByteIdenticalAcrossParallelism(t *testing.T) {
	b := tune.Budget{Trials: 16}
	stream := func(parallel int) [][]byte {
		run := New(Options{Workers: 4}).Submit(Job{
			Name: "det", Tuner: experiment.NewITuned(5), Target: dbmsTarget(5),
			Budget: b, Parallel: parallel,
		})
		var lines [][]byte
		for _, ev := range collectEvents(t, run) {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, data)
		}
		return lines
	}
	seq := stream(1)
	par := stream(4)
	if len(seq) != len(par) {
		t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
	}
	doneSeen := 0
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("event %d differs:\n  parallel 1: %s\n  parallel 4: %s", i, seq[i], par[i])
		}
		var probe struct {
			Kind tune.EventKind `json:"kind"`
		}
		if err := json.Unmarshal(seq[i], &probe); err != nil {
			t.Fatal(err)
		}
		if probe.Kind == tune.TrialDone {
			doneSeen++
		}
	}
	if doneSeen != b.Trials {
		t.Errorf("saw %d trial_done events, want %d", doneSeen, b.Trials)
	}
	if last := seq[len(seq)-1]; !bytes.Contains(last, []byte(`"kind":"session_done"`)) {
		t.Errorf("stream did not end with session_done: %s", last)
	}
}

// TestEventsReplayForLateSubscribers: a subscription opened after the run
// finished sees the identical full sequence.
func TestEventsReplayForLateSubscribers(t *testing.T) {
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "replay", Tuner: &experiment.Random{Seed: 3}, Target: dbmsTarget(3),
		Budget: tune.Budget{Trials: 5},
	})
	live := collectEvents(t, run)
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	late := collectEvents(t, run)
	if len(live) != len(late) {
		t.Fatalf("live saw %d events, late saw %d", len(live), len(late))
	}
	for i := range live {
		a, _ := json.Marshal(live[i])
		b, _ := json.Marshal(late[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("event %d differs between live and late subscription", i)
		}
	}
	if h := run.History(); len(h) != len(live) {
		t.Errorf("History has %d events, stream had %d", len(h), len(live))
	}
}

// gatedTarget blocks each run until released, making pause tests
// deterministic: the test controls exactly when trials complete.
type gatedTarget struct {
	space   *tune.Space
	started chan struct{}
	release chan struct{}
}

func newGatedTarget() *gatedTarget {
	return &gatedTarget{
		space:   tune.NewSpace(tune.Float("a", 0, 1, 0.5)),
		started: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
}

func (g *gatedTarget) Name() string       { return "stub/gated" }
func (g *gatedTarget) Space() *tune.Space { return g.space }
func (g *gatedTarget) Run(cfg tune.Config) tune.Result {
	g.started <- struct{}{}
	<-g.release
	return tune.Result{Time: 1}
}

// seqTuner runs n trials sequentially through a session (the shape of the
// inherently sequential tuner categories).
type seqTuner struct{ n int }

func (s *seqTuner) Name() string { return "stub/seq" }
func (s *seqTuner) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	return tune.DriveProposer(ctx, s.Name(), target, b, tune.Sequential(func(run tune.RunFunc) {
		for i := 0; i < s.n; i++ {
			if _, ok := run(target.Space().Default()); !ok {
				return
			}
		}
	}))
}

// TestPauseResumeStopsNewTrials: after Pause, the in-flight trial finishes
// but the next one does not start until Resume; the run then completes
// with every trial recorded.
func TestPauseResumeStopsNewTrials(t *testing.T) {
	target := newGatedTarget()
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "pause", Tuner: &seqTuner{n: 3}, Target: target,
		Budget: tune.Budget{Trials: 3},
	})
	<-target.started // trial 1 is in flight
	run.Pause()
	if got := run.State(); got != RunPaused {
		t.Fatalf("state after Pause = %s, want %s", got, RunPaused)
	}
	target.release <- struct{}{} // let trial 1 finish; trial 2 must now gate
	select {
	case <-target.started:
		t.Fatal("a new trial started while paused")
	case <-time.After(150 * time.Millisecond):
	}
	run.Resume()
	<-target.started // trial 2 starts after resume
	target.release <- struct{}{}
	<-target.started
	target.release <- struct{}{}
	res, err := run.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Errorf("recorded %d trials, want 3", len(res.Trials))
	}
}

// TestStopCancelsRun: Stop makes the run fail with context.Canceled, the
// SessionDone event carries the error, and Wait returns it.
func TestStopCancelsRun(t *testing.T) {
	target := newGatedTarget()
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "stop", Tuner: &seqTuner{n: 5}, Target: target,
		Budget: tune.Budget{Trials: 5},
	})
	<-target.started
	run.Stop()
	target.release <- struct{}{} // unblock the in-flight trial
	if _, err := run.Wait(nil); err != context.Canceled {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if run.State() != RunFailed {
		t.Errorf("state = %s, want %s", run.State(), RunFailed)
	}
	evs := collectEvents(t, run)
	last := evs[len(evs)-1]
	if last.Kind != tune.SessionDone || last.Err != context.Canceled {
		t.Errorf("last event = %+v, want session_done with context.Canceled", last)
	}
}

// TestPausedRunReleasesItsSlot: a paused session must not starve queued
// ones — on a one-slot engine, a session submitted after the pause runs
// to completion while the paused session waits, and the paused session
// still finishes after resume with every trial recorded.
func TestPausedRunReleasesItsSlot(t *testing.T) {
	eng := New(Options{Workers: 1})
	target := newGatedTarget()
	paused := eng.Submit(Job{
		Name: "paused", Tuner: &seqTuner{n: 2}, Target: target,
		Budget: tune.Budget{Trials: 2},
	})
	<-target.started
	paused.Pause()
	target.release <- struct{}{} // trial 1 finishes; the run parks and frees its slot

	other := eng.Submit(Job{
		Name: "other", Tuner: &experiment.Random{Seed: 8}, Target: dbmsTarget(8),
		Budget: tune.Budget{Trials: 3},
	})
	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if res, err := other.Wait(waitCtx); err != nil || len(res.Trials) != 3 {
		t.Fatalf("session behind a paused one did not run: %v, %+v", err, res)
	}

	paused.Resume()
	<-target.started
	target.release <- struct{}{}
	if res, err := paused.Wait(waitCtx); err != nil || len(res.Trials) != 2 {
		t.Fatalf("paused session did not finish after resume: %v, %+v", err, res)
	}
}

// TestStopPendingRun: stopping a run that is still queued behind another
// session takes effect immediately — it must not wait for a scheduler
// slot to free up.
func TestStopPendingRun(t *testing.T) {
	eng := New(Options{Workers: 1})
	blocker := newGatedTarget()
	first := eng.Submit(Job{
		Name: "holder", Tuner: &seqTuner{n: 1}, Target: blocker,
		Budget: tune.Budget{Trials: 1},
	})
	<-blocker.started // the only slot is now held
	queued := eng.Submit(Job{
		Name: "queued", Tuner: &seqTuner{n: 1}, Target: newGatedTarget(),
		Budget: tune.Budget{Trials: 1},
	})
	if got := queued.State(); got != RunPending {
		t.Fatalf("queued state = %s, want %s", got, RunPending)
	}
	queued.Stop()
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := queued.Wait(waitCtx); err != context.Canceled {
		t.Fatalf("queued Wait = %v, want context.Canceled (without waiting for a slot)", err)
	}
	evs := collectEvents(t, queued)
	if len(evs) != 1 || evs[0].Kind != tune.SessionDone {
		t.Errorf("queued run events = %+v, want a lone session_done", evs)
	}
	blocker.release <- struct{}{}
	if _, err := first.Wait(nil); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitContextCancellation: cancelling the submit context stops the
// run exactly like Stop.
func TestSubmitContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := New(Options{Workers: 1}).SubmitContext(ctx, Job{
		Name: "cancelled", Tuner: experiment.NewITuned(1), Target: dbmsTarget(1),
		Budget: tune.Budget{Trials: 5},
	})
	if _, err := run.Wait(nil); err != context.Canceled {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
}

// TestRunArchivesOnSuccess: a job with an Archive callback hands off the
// completed session record — named, featured, and with every trial — before
// Wait returns; failed runs archive nothing.
func TestRunArchivesOnSuccess(t *testing.T) {
	var got []tune.SessionRecord
	job := Job{
		Name:    "archived",
		Tuner:   &experiment.Random{Seed: 5},
		Target:  dbmsTarget(5),
		Budget:  tune.Budget{Trials: 4},
		Archive: func(rec tune.SessionRecord) { got = append(got, rec) },
	}
	run := New(Options{Workers: 1}).Submit(job)
	res, err := run.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("archived %d records, want 1", len(got))
	}
	rec := got[0]
	if rec.System != "dbms" || rec.Workload != "tpch" {
		t.Errorf("archived as %s/%s, want the target's name dbms/tpch", rec.System, rec.Workload)
	}
	if len(rec.Trials) != len(res.Trials) {
		t.Errorf("archived %d trials, result had %d", len(rec.Trials), len(res.Trials))
	}
	if len(rec.Features) == 0 {
		t.Error("workload features not captured")
	}
	if len(rec.ParamNames) != dbmsTarget(5).Space().Dim() {
		t.Errorf("param names = %v", rec.ParamNames)
	}

	// A cancelled run must not archive.
	before := len(got)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run3 := New(Options{Workers: 1}).SubmitContext(ctx, job)
	if _, err := run3.Wait(nil); err == nil {
		t.Fatal("cancelled run should error")
	}
	if len(got) != before {
		t.Error("cancelled run archived a record")
	}
}
