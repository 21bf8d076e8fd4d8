// Package engine is the concurrent tuning engine: it runs every tuner that
// proposes configurations (tune.BatchTuner, tune.FidelityBatchTuner — all but
// the adaptive family, whose unit of work is a controlled run) through the one
// drive loop, tune.Drive, with an evaluator that fans each proposed batch out
// to a worker pool (and a remote fleet's slots) and replays checkpointed
// history on resume — and it schedules many independent (target, tuner)
// sessions concurrently. Every recorded trial is one run of the target.
//
// Determinism is the design constraint everything here bends around: for a
// fixed seed the engine produces bit-identical results at any worker count.
// Three rules make that true:
//
//  1. Proposers are single-threaded. The loop asks for a batch, the evaluator
//     evaluates it, and the proposer is told every outcome in proposal order
//     ("ordered observation merge") — never in completion order.
//  2. Run-index reservation. Targets implementing tune.ConcurrentTarget key
//     their run-to-run noise by a reserved index, assigned in proposal
//     order, so a trial's noise does not depend on which worker ran it
//     first. Targets without the interface are evaluated sequentially.
//  3. Replay decisions happen on the driver goroutine, before the fan-out,
//     never inside it.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/tune"
)

// Options configures an Engine. A session's own setup — parallelism,
// remote fleet, checkpoints, replay — is its Job's; the engine only owns the
// scheduler.
type Options struct {
	// Workers is the number of scheduler slots (default: GOMAXPROCS): how
	// many submitted sessions run at once. Trials inside a session evaluate
	// on its Job.Parallel workers, so the bounds multiply only when a job
	// opts into inner parallelism.
	Workers int
}

// Engine schedules tuning sessions concurrently.
type Engine struct {
	sem chan struct{} // scheduler slots for Submit/RunJobs
}

// New returns an engine with the given options.
func New(o Options) *Engine {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{sem: make(chan struct{}, w)}
}

// tune runs the job's tuner against its target. Tuners exposing an ask/tell
// interface — every tuner that proposes configurations, sequential bodies
// included (tune.Sequential) — go through the drive loop and the evaluator
// stack. A tune.BlockingTuner is the adaptive family (colt, partitions,
// memory-manager, recommender): its trial is a controlled run, not a
// configuration, so it runs its own loop inline and cannot be checkpointed
// or resumed (DESIGN.md §2, "Why the adaptive family stays outside"). Every
// path gives identical results at any worker count for a fixed seed.
func (j *Job) tune(ctx context.Context) (*tune.TuningResult, error) {
	var fp tune.FidelityProposer
	var err error
	switch t := j.Tuner.(type) {
	case tune.FidelityBatchTuner:
		fp, err = t.NewFidelityProposer(j.Target, j.Budget)
	case tune.BatchTuner:
		var p tune.Proposer
		if p, err = t.NewProposer(j.Target, j.Budget); err == nil {
			fp = tune.LiftProposer(p)
		}
	case tune.BlockingTuner: // the adaptive family: a controlled run is not a Candidate
		if !j.Replay.Empty() {
			return nil, fmt.Errorf("engine: replay: tuner %q has no ask/tell proposal form; its sessions cannot be resumed", j.Tuner.Name())
		}
		return t.Tune(ctx, j.Target, j.Budget)
	default: // no form to drive: CheckTuner's refusal
		return nil, tune.CheckTuner(j.Tuner, j.Target, j.Budget)
	}
	if err != nil {
		return nil, err
	}
	return j.drive(ctx, fp)
}

// drive runs tune.Drive over the job's evaluator stack, offering
// checkpoints at batch boundaries. Parallel and remote evaluation,
// checkpoints and resume all ride on run-index reservation: without an
// index-keyed noise stream an evaluation could not name which draw of the
// target's noise it is, so plain targets stay inline, uncheckpointed and
// non-resumable.
func (j *Job) drive(ctx context.Context, fp tune.FidelityProposer) (*tune.TuningResult, error) {
	caps := tune.Resolve(j.Target)
	ev, rep, err := j.evaluator(caps)
	if err != nil {
		return nil, err
	}
	lastCkpt := 0
	if rep != nil {
		lastCkpt = len(j.Replay.Trials) // replayed boundaries are already durable
	}
	boundary := func(s *tune.Session) {
		// A one-slot session evaluates inline and never blocks, so without this
		// yield it holds its processor until the 10 ms preemption tick: the
		// handlers streaming its events wait that long, and with every core
		// running a session so does the collector's mark worker, while the other
		// sessions allocate past the heap goal (peak RSS then follows timing).
		runtime.Gosched()
		if j.Checkpoint == nil || !caps.Indexed() {
			return
		}
		// Offer the session's resumable state when a trial was observed since
		// the last snapshot; see tune.CheckpointState for the aliasing
		// contract.
		if trials := s.Trials(); len(trials) > lastCkpt {
			j.Checkpoint(tune.CheckpointState{Trials: trials, RunsReserved: reservedRuns(caps)})
			lastCkpt = len(trials)
		}
	}
	res, err := tune.Drive(ctx, j.Tuner.Name(), j.Target, j.Budget, fp, ev, boundary)
	if err == nil {
		err = rep.unfinished()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// evaluator builds the evaluator stack the job's fields ask for, outermost
// first:
//
//	replay prefix → pool (or inline) → target capabilities
//
// It returns the outermost layer, and the replay layer when the job resumes.
func (j *Job) evaluator(caps tune.Capabilities) (tune.Evaluator, *replayed, error) {
	ev := tune.Inline(caps)
	if workers := max(j.Parallel, 1); caps.Indexed() && (workers > 1 || j.Remote != nil) {
		ev = &pool{caps: caps, workers: workers, remote: j.Remote, lookahead: j.Budget.SimTime > 0}
	}
	if j.Replay.Empty() {
		return ev, nil, nil
	}
	if !caps.Indexed() {
		return nil, nil, fmt.Errorf("engine: replay: target %q has no run-index determinism (tune.ConcurrentTarget); sessions on it cannot be resumed", j.Target.Name())
	}
	rep := &replayed{live: ev, caps: caps, log: j.Replay}
	return rep, rep, nil
}

// pool is the ordered streaming dispatch: local workers and the remote
// fleet's slots pull batch positions from one queue, and results are yielded
// in proposal order as soon as their turn is complete. Run indices are
// reserved here on the driver goroutine, in proposal order, one per
// candidate; because every evaluation is pure in (seed, index, fidelity, config) it
// does not matter which executor ran which trial.
//
// Waste past a budget cut is bounded two ways. The batch context is
// cancelled as soon as the session stops taking results, which early-stops
// whatever is still executing — outstanding remote leases included. And
// under a sim-time budget, where the exhaustion point is unknowable before
// running and targets may ignore cancellation, a position is only handed to
// a slot while it is within `slots` of the merge cursor. Recorded trials are
// identical at any worker count either way. Caveat: a mid-batch cut leaves
// the reserved tail of run indices unrecorded, so after such a session the
// target's counter may differ across worker counts; reuse the target for
// seed-sensitive comparisons only after trial-bounded sessions.
type pool struct {
	caps      tune.Capabilities
	workers   int
	remote    RemoteBackend
	lookahead bool // sim-time budget: bound dispatch ahead of the merge
}

func (p *pool) Evaluate(ctx context.Context, batch []tune.Candidate, yield func(int, tune.Result) bool) error {
	// The fleet is re-read at every batch, so one that grows or drains
	// changes the session's concurrency at the next batch.
	remote := remoteSlots(p.remote)
	slots := p.workers + remote
	if slots == 1 {
		return tune.Inline(p.caps).Evaluate(ctx, batch, yield) // no goroutine, no channel
	}
	n := len(batch)
	bctx, cancel := context.WithCancel(ctx)
	next := make(chan int, n) // positions handed to slots
	done := make(chan int, n) // positions evaluated (or skipped after cancel)
	var wg sync.WaitGroup
	// wg.Wait is bounded by the FidelityTarget and RemoteBackend contracts —
	// evaluations return promptly once their context is done — so a hanging
	// or fault-injected evaluation cannot wedge the scheduler or leak the
	// run's slot.
	defer func() {
		cancel()
		close(next)
		wg.Wait()
	}()

	start := p.caps.ReserveRuns(int64(n))
	results := make([]tune.Result, n)
	errs := make([]error, n)
	slot := func(eval func(context.Context, int64, tune.Candidate) (tune.Result, error)) {
		defer wg.Done()
		for i := range next {
			// A cancelled batch skips the evaluation: the merge only reaches
			// a skipped position after the session is already exhausted, so
			// the zero result is never recorded.
			if bctx.Err() == nil {
				res, err := eval(bctx, start+int64(i), batch[i])
				if err == nil {
					results[i] = res
				} else if bctx.Err() == nil {
					errs[i] = err
				}
			}
			done <- i
		}
	}
	wg.Add(min(p.workers, n) + min(remote, n))
	for w := 0; w < min(p.workers, n); w++ {
		go slot(p.caps.Eval)
	}
	for w := 0; w < min(remote, n); w++ {
		go slot(p.evalRemote)
	}

	fed := 0
	feed := func(upto int) {
		for ; fed < min(upto, n); fed++ {
			next <- fed
		}
	}
	window := n
	if p.lookahead {
		window = slots
	}
	ready := make([]bool, n)
	for cur := 0; cur < n; cur++ {
		feed(cur + window)
		for !ready[cur] {
			ready[<-done] = true
		}
		// A remote evaluation lost beyond recovery fails the session: infra
		// loss is not a recordable trial outcome.
		if errs[cur] != nil && bctx.Err() == nil {
			return errs[cur]
		}
		if !yield(cur, results[cur]) {
			break
		}
	}
	return nil
}

func (p *pool) evalRemote(ctx context.Context, idx int64, c tune.Candidate) (tune.Result, error) {
	res, err := p.remote.Evaluate(ctx, idx, c.Fidelity, c.Config)
	if err != nil {
		err = fmt.Errorf("engine: remote evaluation: %w", err)
	}
	return res, err
}
