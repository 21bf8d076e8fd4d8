package engine

import (
	"context"
	"sync"

	"repro/internal/tune"
)

// RunState describes where a submitted run is in its lifecycle.
type RunState string

const (
	// RunPending: submitted, waiting for a scheduler slot.
	RunPending RunState = "pending"
	// RunRunning: holding a slot and evaluating trials.
	RunRunning RunState = "running"
	// RunPaused: paused between trials (its scheduler slot released).
	RunPaused RunState = "paused"
	// RunDone: finished with a result.
	RunDone RunState = "done"
	// RunFailed: finished with an error (including Stop/cancellation).
	RunFailed RunState = "failed"
)

// DefaultEventBuffer is how many events a run retains for replay when the
// job does not choose a buffer size. Sessions shorter than this keep every
// event; longer sessions fold their oldest events into a compacted stream
// checkpoint.
const DefaultEventBuffer = 4096

// eventBaseBytes is the accounting estimate for one retained event's fixed
// footprint (struct, strings, channel bookkeeping); each configuration
// dimension adds eventDimBytes. Estimates, not measurements — healthz uses
// them to report order-of-magnitude stream memory per run.
const (
	eventBaseBytes = 256
	eventDimBytes  = 16
)

// Run is the handle to one submitted tuning session. It exposes the
// session's ordered event stream, pause/resume/stop control, and the final
// result. Handles are safe for concurrent use.
//
// Event retention is bounded: the run keeps the most recent Job.EventBuffer
// events in a ring and folds everything older into a compacted
// tune.StreamSummary. Subscribers attaching (or falling) behind the ring
// receive a synthetic stream_checkpoint/stream_lagged event carrying that
// summary and then the retained tail, so a run's memory stays O(buffer) no
// matter how long the session or how slow its subscribers.
type Run struct {
	job    Job
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	sem    chan struct{} // the owning engine's scheduler slots

	mu     sync.Mutex
	buf    []tune.Event  // event ring: grows to bufCap, then wraps
	head   int           // index of the oldest retained event once wrapped
	total  int           // events ever appended == Seq of the newest
	bufCap int           // retention bound
	notify chan struct{} // closed and replaced on every append
	// progress folds every appended event, summary every evicted one.
	progress tune.StreamSummary
	summary  tune.StreamSummary
	memBytes int // estimated bytes retained by the ring
	subs     int // live subscription goroutines (gauge)

	running   bool
	finished  bool
	holdsSlot bool
	pauseCh   chan struct{} // non-nil while paused; closed on resume
	result    *tune.TuningResult
	err       error
}

// Submit schedules job on the engine and returns its handle immediately.
// The run starts once a scheduler slot (one of Workers) frees up; trials
// inside the run are evaluated on job.Parallel workers (default 1), so
// total concurrency across an engine's submitted runs is Workers unless a
// job opts into inner parallelism. Use Stop or SubmitContext to cancel.
func (e *Engine) Submit(job Job) *Run {
	return e.SubmitContext(context.Background(), job)
}

// SubmitContext is Submit with a parent context: cancelling ctx stops the
// run as Stop would, and the run's session sees ctx's error.
func (e *Engine) SubmitContext(ctx context.Context, job Job) *Run {
	return e.submit(ctx, job, true)
}

// submit starts the run goroutine. record controls whether trial events
// are collected: RunJobs turns it off because it never hands out the
// handle, so an event log would be pure memory overhead.
func (e *Engine) submit(ctx context.Context, job Job, record bool) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	bufCap := job.EventBuffer
	if bufCap <= 0 {
		bufCap = DefaultEventBuffer
	}
	rctx, cancel := context.WithCancel(ctx)
	r := &Run{
		job:    job,
		ctx:    rctx,
		cancel: cancel,
		done:   make(chan struct{}),
		sem:    e.sem,
		bufCap: bufCap,
		notify: make(chan struct{}),
	}
	go r.run(record)
	return r
}

func (r *Run) run(record bool) {
	// A run stopped while still queued must not wait for a slot: without
	// the ctx arm in acquireSlot, Stop on a pending run (or a daemon
	// DELETE on a queued session) would only take effect once earlier
	// sessions finished.
	if !r.acquireSlot() {
		r.finish(nil, r.ctx.Err())
		return
	}
	defer r.releaseSlot()
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()

	ctx := r.ctx
	if record {
		ctx = tune.WithMonitor(ctx, &tune.Monitor{OnEvent: r.observe, Gate: r.gate})
	}
	res, err := r.job.tune(ctx)
	r.archive(res, err)
	r.finish(res, err)
}

// archive hands a successful run's session record to the job's Archive
// callback. It runs on the run goroutine before finish, so the record is
// handed off before Wait returns or SessionDone is emitted.
func (r *Run) archive(res *tune.TuningResult, err error) {
	if r.job.Archive == nil || err != nil || res == nil || len(res.Trials) == 0 {
		return
	}
	system, workload := r.job.names()
	var features map[string]float64
	if d, ok := r.job.Target.(tune.Describer); ok {
		features = d.WorkloadFeatures()
	}
	r.job.Archive(tune.NewSessionRecord(system, workload, features, res))
}

// acquireSlot claims one of the engine's scheduler slots, giving up if
// the run is cancelled first. It reports whether the slot is held.
func (r *Run) acquireSlot() bool {
	select {
	case r.sem <- struct{}{}:
		r.mu.Lock()
		r.holdsSlot = true
		r.mu.Unlock()
		return true
	case <-r.ctx.Done():
		return false
	}
}

// releaseSlot returns the scheduler slot if held; safe to call twice
// (the gate releases during a pause, the run's defer releases at exit).
func (r *Run) releaseSlot() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.holdsSlot {
		r.holdsSlot = false
		<-r.sem
	}
}

// finish records the outcome, emits SessionDone, and releases waiters.
func (r *Run) finish(res *tune.TuningResult, err error) {
	r.mu.Lock()
	r.result, r.err = res, err
	r.finished = true
	r.appendLocked(tune.Event{Kind: tune.SessionDone, Final: res, Err: err})
	r.mu.Unlock()
	r.cancel()
	close(r.done)
}

// observe is the monitor sink: it appends a session event to the ring and
// wakes subscribers. Called with the session lock held, so it must not
// block — appending under the run lock is all it does.
func (r *Run) observe(ev tune.Event) {
	r.mu.Lock()
	r.appendLocked(ev)
	r.mu.Unlock()
}

func (r *Run) appendLocked(ev tune.Event) {
	r.total++
	ev.Seq = r.total
	r.progress.Add(ev)
	if len(r.buf) < r.bufCap {
		r.buf = append(r.buf, ev)
	} else {
		// The evicted prefix folds into the summary, so a summary-then-tail
		// replay leaves a subscriber where the full stream would have.
		r.summary.Add(r.buf[r.head])
		r.memBytes -= eventBytes(r.buf[r.head])
		r.buf[r.head] = ev
		r.head = (r.head + 1) % r.bufCap
	}
	r.memBytes += eventBytes(ev)
	close(r.notify)
	r.notify = make(chan struct{})
}

// eventBytes estimates one event's retained footprint for memory accounting.
func eventBytes(ev tune.Event) int {
	return eventBaseBytes + eventDimBytes*ev.Config.Dims()
}

// oldestLocked returns the Seq of the oldest retained event (total+1 when
// nothing is retained — the empty ring "starts" past everything appended).
func (r *Run) oldestLocked() int {
	return r.total - len(r.buf) + 1
}

// tailLocked copies the retained events with Seq > after, in order.
func (r *Run) tailLocked(after int) []tune.Event {
	oldest := r.oldestLocked()
	if after < oldest-1 {
		after = oldest - 1
	}
	n := r.total - after
	if n <= 0 {
		return nil
	}
	out := make([]tune.Event, n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(r.head+(after-oldest+1)+i)%len(r.buf)]
	}
	return out
}

// Progress is the fold of every event appended so far: trials done and
// pruned, rungs decided, the incumbent, scenario counts. Status endpoints
// poll it instead of rescanning History.
func (r *Run) Progress() tune.StreamSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progress.Rendered()
}

// MemoryBytes estimates the bytes the run's event ring currently retains.
// Tracked incrementally on append/evict; healthz sums it across sessions to
// report stream memory without rescanning logs.
func (r *Run) MemoryBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memBytes
}

// Subscribers reports how many event subscriptions are currently live —
// an observability gauge, used by tests to assert that disconnected
// subscribers are cleaned up.
func (r *Run) Subscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.subs
}

// gate blocks while the run is paused, returning when resumed or when the
// run's context is cancelled. The session consults it before each trial.
// While paused the run gives its scheduler slot back — paused sessions
// must not starve queued ones — and re-acquires one on resume.
func (r *Run) gate() {
	for {
		r.mu.Lock()
		ch := r.pauseCh
		r.mu.Unlock()
		if ch == nil {
			return
		}
		r.releaseSlot()
		select {
		case <-ch:
		case <-r.ctx.Done():
		}
		if !r.acquireSlot() {
			return // cancelled; the session will observe ctx and stop
		}
	}
}

// Pause suspends the run at its next trial boundary: evaluations already
// in flight finish and their trials are recorded (a Stop issued during
// the pause can therefore still be preceded by those final records), but
// no further trials start until Resume. A paused run releases its
// scheduler slot (re-acquiring one on Resume), so pausing never starves
// queued sessions. Pausing a finished run has no effect.
func (r *Run) Pause() {
	r.mu.Lock()
	if r.pauseCh == nil && !r.finished {
		r.pauseCh = make(chan struct{})
	}
	r.mu.Unlock()
}

// Resume lifts a Pause.
func (r *Run) Resume() {
	r.mu.Lock()
	if r.pauseCh != nil {
		close(r.pauseCh)
		r.pauseCh = nil
	}
	r.mu.Unlock()
}

// Stop cancels the run. The session finishes with a cancellation error — as
// for any cancelled drive loop, a stopped session is an error, not a short
// success — delivered through Wait and the SessionDone event.
func (r *Run) Stop() { r.cancel() }

// Done is closed when the run has finished and its result is available.
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the run finishes (or ctx, which may be nil, is
// cancelled — cancelling the wait does not stop the run) and returns the
// final result.
func (r *Run) Wait(ctx context.Context) (*tune.TuningResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-r.done:
		return r.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the final result and error. Valid once Done is closed;
// before that both are nil.
func (r *Run) Result() (*tune.TuningResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, r.err
}

// Name returns the submitted job's name.
func (r *Run) Name() string { return r.job.Name }

// State reports the run's current lifecycle state. A pause requested on a
// still-queued run reports pending until the run starts and reaches its
// first trial boundary.
func (r *Run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.finished && r.err != nil:
		return RunFailed
	case r.finished:
		return RunDone
	case r.running && r.pauseCh != nil:
		return RunPaused
	case r.running:
		return RunRunning
	}
	return RunPending
}

// History returns a snapshot of the retained events, in order. For sessions
// shorter than the event buffer (the default 4096 covers every bundled
// sysmodel session at default budgets) this is the complete history; longer
// sessions retain the most recent events, with the evicted prefix available
// as a summary through Summary.
func (r *Run) History() []tune.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tailLocked(0)
}

// Summary reports the compacted fold of every event evicted from the ring
// so far. ok is false while nothing has been evicted (the retained events
// are the full history).
func (r *Run) Summary() (s tune.StreamSummary, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summary.Rendered(), r.summary.CoveredThrough > 0
}

// Events returns an ordered event stream for the run. Every call starts a
// fresh subscription that replays the run's retained history from the first
// event and then follows live until SessionDone, after which the channel
// closes. For sessions within the event buffer, late and repeated
// subscribers see the identical sequence; past it, the evicted prefix is
// replaced by one synthetic stream_checkpoint event carrying its compacted
// summary. The caller must drain the channel (or use EventsSince with a
// cancellable context to abandon it early).
func (r *Run) Events() <-chan tune.Event {
	return r.EventsSince(context.Background(), 0)
}

// EventsSince streams the run's events with Seq > after — the resume form
// behind SSE Last-Event-ID. Three regimes:
//
//   - after within the ring: the subscriber gets the retained tail and then
//     follows live. Reconnecting clients lose nothing.
//   - after (or the whole requested prefix) already evicted: the first
//     delivered event is a synthetic StreamCheckpoint whose Summary compacts
//     everything through its Seq; retained events follow from Seq+1.
//   - a live subscriber consuming slower than the session appends, once the
//     ring laps it: a synthetic StreamLagged (Summary plus Dropped count)
//     tells it what it missed, then the stream continues from the ring.
//
// Synthetic events are per-subscriber and never retained; a subscriber that
// keeps up never sees one. The channel closes after SessionDone or when ctx
// is cancelled.
func (r *Run) EventsSince(ctx context.Context, after int) <-chan tune.Event {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan tune.Event)
	r.mu.Lock()
	r.subs++
	r.mu.Unlock()
	go func() {
		defer close(out)
		defer func() {
			r.mu.Lock()
			r.subs--
			r.mu.Unlock()
		}()
		sent := after     // Seq of the last event delivered (or resumed past)
		caughtUp := false // true once this subscriber has observed ring state
		for {
			r.mu.Lock()
			var synth *tune.Event
			if oldest := r.oldestLocked(); sent < oldest-1 {
				// The events after sent were evicted: compact them into one
				// synthetic event. A fresh or reconnecting subscriber gets a
				// checkpoint; one that was already attached and fell behind
				// gets a lagged notice with its personal drop count.
				sum := r.summary.Rendered()
				kind := tune.StreamCheckpoint
				if caughtUp {
					kind = tune.StreamLagged
					sum.Dropped = oldest - 1 - sent
				}
				synth = &tune.Event{Kind: kind, Seq: sum.CoveredThrough, Summary: &sum}
				sent = oldest - 1
			}
			batch := r.tailLocked(sent)
			notify := r.notify
			finished := r.finished
			r.mu.Unlock()
			caughtUp = true
			if synth != nil {
				select {
				case out <- *synth:
				case <-ctx.Done():
					return
				}
			}
			for _, ev := range batch {
				select {
				case out <- ev:
					sent = ev.Seq
				case <-ctx.Done():
					return
				}
			}
			if synth == nil && len(batch) == 0 {
				if finished {
					return
				}
				select {
				case <-notify:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}
