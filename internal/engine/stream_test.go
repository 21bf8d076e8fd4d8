package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"iter"
	"sync"
	"testing"
	"time"

	"repro/internal/tune"
	"repro/internal/tuners/experiment"
)

// TestRingEvictionFoldsSummary: a session longer than its event buffer
// retains only the tail; the evicted prefix is folded into a summary whose
// counters, combined with the retained events, account for the whole run.
func TestRingEvictionFoldsSummary(t *testing.T) {
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "ring", Tuner: &experiment.Random{Seed: 3}, Target: dbmsTarget(3),
		Budget: tune.Budget{Trials: 20}, EventBuffer: 8,
	})
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	tail := run.History()
	if len(tail) != 8 {
		t.Fatalf("retained %d events, want the buffer size 8", len(tail))
	}
	sum, ok := run.Summary()
	if !ok {
		t.Fatal("no summary despite evictions")
	}
	if sum.CoveredThrough != tail[0].Seq-1 {
		t.Errorf("summary covers through %d, tail starts at %d", sum.CoveredThrough, tail[0].Seq)
	}
	tailDone := 0
	for _, ev := range tail {
		if ev.Kind == tune.TrialDone {
			tailDone++
		}
	}
	if sum.TrialsDone+tailDone != 20 {
		t.Errorf("summary %d + tail %d trial_done events, want 20", sum.TrialsDone, tailDone)
	}
	// The compacted incumbent is carried forward unless the tail improved it.
	improvedInTail := false
	for _, ev := range tail {
		if ev.Kind == tune.IncumbentImproved {
			improvedInTail = true
		}
	}
	if !improvedInTail && (sum.BestResult == nil || len(sum.BestConfig) == 0) {
		t.Errorf("evicted incumbent not folded into summary: %+v", sum)
	}
}

// TestEventsSinceResumesMidStream: EventsSince(after) on a fully retained
// history returns exactly the events with Seq > after, byte-identical to
// the same slice of a from-the-start subscription — the contract behind
// SSE Last-Event-ID reconnection.
func TestEventsSinceResumesMidStream(t *testing.T) {
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "resume", Tuner: &experiment.Random{Seed: 5}, Target: dbmsTarget(5),
		Budget: tune.Budget{Trials: 6},
	})
	full := collectEvents(t, run)
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	after := full[len(full)/2].Seq
	var resumed []tune.Event
	for ev := range run.EventsSince(context.Background(), after) {
		resumed = append(resumed, ev)
	}
	want := full[len(full)/2+1:]
	if len(resumed) != len(want) {
		t.Fatalf("resumed %d events after seq %d, want %d", len(resumed), after, len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(resumed[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("resumed event %d differs:\n  full:    %s\n  resumed: %s", i, a, b)
		}
	}
}

// TestEvictedPrefixReplacedByCheckpoint: a subscriber attaching (or
// reconnecting) behind the ring gets one synthetic stream_checkpoint event
// carrying the compacted summary, then the retained tail with contiguous
// sequence numbers.
func TestEvictedPrefixReplacedByCheckpoint(t *testing.T) {
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "ckpt", Tuner: &experiment.Random{Seed: 9}, Target: dbmsTarget(9),
		Budget: tune.Budget{Trials: 20}, EventBuffer: 6,
	})
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	var evs []tune.Event
	for ev := range run.Events() {
		evs = append(evs, ev)
	}
	if evs[0].Kind != tune.StreamCheckpoint {
		t.Fatalf("first event = %s, want stream_checkpoint", evs[0].Kind)
	}
	if evs[0].Summary == nil || evs[0].Summary.Dropped != 0 {
		t.Fatalf("checkpoint summary = %+v; fresh subscribers carry no drop count", evs[0].Summary)
	}
	if evs[0].Seq != evs[0].Summary.CoveredThrough {
		t.Errorf("checkpoint Seq %d != CoveredThrough %d", evs[0].Seq, evs[0].Summary.CoveredThrough)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap after checkpoint: event %d has seq %d, previous %d", i, evs[i].Seq, evs[i-1].Seq)
		}
		if evs[i].Kind == tune.StreamCheckpoint || evs[i].Kind == tune.StreamLagged {
			t.Fatalf("synthetic event %s beyond the first position", evs[i].Kind)
		}
	}
	if last := evs[len(evs)-1]; last.Kind != tune.SessionDone {
		t.Errorf("stream ended with %s", last.Kind)
	}
	// Resuming from a Seq inside the evicted prefix also gets the checkpoint.
	var again []tune.Event
	for ev := range run.EventsSince(context.Background(), 2) {
		again = append(again, ev)
	}
	if again[0].Kind != tune.StreamCheckpoint {
		t.Errorf("resume inside evicted prefix: first event = %s, want stream_checkpoint", again[0].Kind)
	}
}

// TestSlowSubscriberGetsLagged: a live subscriber that stalls while the
// session laps its ring is told what it missed with a stream_lagged event
// (checkpoint summary plus its personal drop count) instead of stalling
// the session or buffering without bound.
func TestSlowSubscriberGetsLagged(t *testing.T) {
	target := newGatedTarget()
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "lag", Tuner: &seqTuner{n: 10}, Target: target,
		Budget: tune.Budget{Trials: 10}, EventBuffer: 3,
	})
	next, stop := iter.Pull(run.Events())
	defer stop()
	// A trial's events are emitted when it is recorded, so the first one
	// arrives once trial 1 has been released.
	<-target.started
	target.release <- struct{}{}
	first, _ := next() // subscriber is now attached and caught up
	if first.Seq != 1 {
		t.Fatalf("first event seq = %d, want 1", first.Seq)
	}
	// Stall the subscriber while the rest of the session runs past the ring.
	for i := 1; i < 10; i++ {
		<-target.started
		target.release <- struct{}{}
	}
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	evs := []tune.Event{first}
	for ev, ok := next(); ok; ev, ok = next() {
		evs = append(evs, ev)
	}
	// The subscriber may still hold real events of the batch it read before
	// the stall; after them comes exactly one stream_lagged, whose drop count
	// is the gap it bridges, and then the ring's tail.
	lagged := -1
	for i, ev := range evs {
		if ev.Kind != tune.StreamLagged {
			continue
		}
		if lagged >= 0 {
			t.Fatalf("second stream_lagged at event %d (first at %d)", i, lagged)
		}
		lagged = i
	}
	if lagged < 0 || lagged == len(evs)-1 {
		t.Fatalf("stream_lagged at %d of %d events: want one, between real events", lagged, len(evs))
	}
	notice, before, after := evs[lagged], evs[lagged-1], evs[lagged+1]
	if want := after.Seq - 1 - before.Seq; want <= 0 || notice.Summary == nil || notice.Summary.Dropped != want {
		t.Errorf("stream_lagged %+v between seq %d and %d: want dropped %d", notice.Summary, before.Seq, after.Seq, want)
	}
	if notice.Seq != after.Seq-1 {
		t.Errorf("stream_lagged seq %d, tail resumes at %d", notice.Seq, after.Seq)
	}
	for i := 1; i < len(evs); i++ {
		if i != lagged && i != lagged+1 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("event %d has seq %d after seq %d with no lag notice between", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Kind != tune.SessionDone {
		t.Errorf("stream ended with %s", last.Kind)
	}
}

func TestSlowSubscriberGetsLaggedRace5(t *testing.T) { TestSlowSubscriberGetsLagged(t) }

// TestSubscriberCleanupOnDisconnect is the regression test for subscriber
// leaks: readers whose context is cancelled mid-run are released (the
// Subscribers gauge returns to zero) while the run is still in flight, and
// drained streams on a finished run are too.
func TestSubscriberCleanupOnDisconnect(t *testing.T) {
	target := newGatedTarget()
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "subs", Tuner: &seqTuner{n: 2}, Target: target,
		Budget: tune.Budget{Trials: 2},
	})
	<-target.started
	ctx, cancel := context.WithCancel(context.Background())
	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range run.EventsSince(ctx, 0) {
			}
		}()
	}
	waitGauge(t, run, n, "with readers waiting on a run that has emitted nothing")
	cancel()
	wg.Wait()
	if got := run.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d after cancelling every reader mid-run, want 0", got)
	}

	// Finished-run streams clean up after draining too.
	target.release <- struct{}{}
	<-target.started
	target.release <- struct{}{}
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	for ev := range run.Events() {
		_ = ev
	}
	if got := run.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d after draining a finished stream, want 0", got)
	}
}

// TestEarlyExitEndsSubscription: a reader that breaks out of its range, and
// one whose context is cancelled while it waits for the next event, are
// released by the time their loop returns — no goroutine is left behind to
// deliver the events nobody reads.
func TestEarlyExitEndsSubscription(t *testing.T) {
	target := newGatedTarget()
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "exit", Tuner: &seqTuner{n: 2}, Target: target,
		Budget: tune.Budget{Trials: 2},
	})
	<-target.started
	target.release <- struct{}{}
	<-target.started // trial 1 is recorded, trial 2 is blocked
	n := 0
	for range run.Events() {
		n++
		break
	}
	if got := run.Subscribers(); n != 1 || got != 0 {
		t.Fatalf("after breaking out at event %d: Subscribers = %d, want 0", n, got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	last := len(run.History())
	done := make(chan int)
	go func() {
		n := 0
		for range run.EventsSince(ctx, last) { // nothing past last until trial 2
			n++
		}
		done <- n
	}()
	waitGauge(t, run, 1, "with a reader waiting past the last event")
	cancel()
	if n := <-done; n != 0 {
		t.Errorf("cancelled reader was yielded %d events, want 0", n)
	}
	if got := run.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d after cancelling a waiting reader, want 0", got)
	}
	target.release <- struct{}{}
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
}

// waitGauge polls the Subscribers gauge until it reaches want.
func waitGauge(t *testing.T, r *Run, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := r.Subscribers(); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("Subscribers = %d %s, want %d", got, when, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMemoryBytesBounded: the ring's memory accounting stays below the
// per-event estimate times the buffer size no matter how long the session,
// and a bigger-than-session buffer reports a proportionally small number.
func TestMemoryBytesBounded(t *testing.T) {
	run := New(Options{Workers: 1}).Submit(Job{
		Name: "mem", Tuner: &experiment.Random{Seed: 1}, Target: dbmsTarget(1),
		Budget: tune.Budget{Trials: 30}, EventBuffer: 10,
	})
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	dims := dbmsTarget(1).Space().Dim()
	ceiling := 10 * (eventBaseBytes + eventDimBytes*dims)
	if got := run.MemoryBytes(); got <= 0 || got > ceiling {
		t.Errorf("MemoryBytes = %d, want in (0, %d]", got, ceiling)
	}
}

// BenchmarkEventsSince measures one reader of a 32-event stream: live, where
// the reader waits on its own goroutine while the events are appended, and
// replay, where the run has already finished.
func BenchmarkEventsSince(b *testing.B) {
	const n = 32
	appendAll := func(r *Run) {
		for i := 1; i < n; i++ {
			r.observe(tune.Event{Kind: tune.TrialDone, Trial: i})
		}
		r.mu.Lock()
		r.finished = true
		r.appendLocked(tune.Event{Kind: tune.SessionDone})
		r.mu.Unlock()
	}
	count := func(r *Run) int {
		got := 0
		for range r.Events() {
			got++
		}
		return got
	}
	b.Run("live", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := &Run{bufCap: DefaultEventBuffer}
			got := make(chan int)
			go func() { got <- count(r) }()
			appendAll(r)
			if k := <-got; k != n {
				b.Fatalf("read %d events, want %d", k, n)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		r := &Run{bufCap: DefaultEventBuffer}
		appendAll(r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if k := count(r); k != n {
				b.Fatalf("read %d events, want %d", k, n)
			}
		}
	})
}
