package engine

import (
	"context"

	"repro/internal/tune"
)

// Job is one tuning session: a tuner bound to its own target. Targets must
// not be shared between jobs — each job's trial sequence draws from its
// target's private noise stream, and sharing would entangle them.
type Job struct {
	// Name labels the job in results (e.g. "experiment-driven/dbms").
	Name   string
	Tuner  tune.Tuner
	Target tune.Target
	Budget tune.Budget
	// Parallel is the worker count for batch trial evaluation inside this
	// job (≤1 or 0 means sequential). Results are identical at any value
	// for a fixed seed; only wall-clock changes.
	Parallel int
	// Memo enables the config-keyed result memo cache: proposing an
	// already-evaluated configuration (at the same fidelity) returns the
	// memoized result instead of a fresh noisy run, so converged tuners stop
	// paying wall-clock for repeat proposals. Off by default because repeated
	// measurements of a noisy target are sometimes deliberate — without it the
	// session reproduces the inline drive loop exactly.
	Memo bool
	// Remote, when non-nil, adds a remote evaluator fleet's slots to this
	// job's trial evaluation. The backend must be bound to this job's
	// target sysmodel (dist.Pool.Backend); results are identical with or
	// without it — remote evaluation is pure in (seed, run index, config) —
	// so only wall-clock and fault exposure change.
	Remote RemoteBackend
	// System and Workload name the target for repository archival. When
	// either is empty it is derived from Target.Name() ("dbms/tpch" →
	// system "dbms", workload "tpch").
	System, Workload string
	// Archive, when non-nil, receives the finished session's record after
	// a successful run, before the run is marked done — Wait returning
	// means the record has been handed off. Failed or cancelled runs are
	// not archived. The callback owns durability and error handling.
	Archive func(tune.SessionRecord)
	// EventBuffer bounds how many events the run handle retains for replay
	// (≤ 0 = DefaultEventBuffer). Events evicted from the buffer are folded
	// into a compacted stream checkpoint, so late or slow subscribers of a
	// long session receive a summary plus the tail instead of stalling the
	// run or growing memory without bound.
	EventBuffer int
	// Checkpoint, when non-nil, receives the session's resumable state at
	// every batch/rung boundary (throttled by CheckpointEvery) — the hook
	// crash-resumable services persist through. Only offered for targets
	// with index-keyed noise (tune.ConcurrentTarget): without run-index
	// determinism a resumed session could not reproduce the uninterrupted
	// one. The snapshot's Trials alias live session state; the callback
	// must copy what it keeps (tune.CheckpointState.Replay does) and runs
	// on the driver goroutine, so slow sinks stall the session, not other
	// sessions.
	Checkpoint func(tune.CheckpointState)
	// CheckpointEvery throttles Checkpoint: at least this many new trials
	// must have been observed since the last snapshot (0 = every boundary).
	CheckpointEvery int
	// Replay, when non-empty, resumes an interrupted session: the recorded
	// observations are fed back to a fresh proposer in order (re-emitting
	// their events) before any new evaluation, and the target's reserved-
	// run counter is restored, so the continued session is identical to an
	// uninterrupted run at the same seed. The replay must come from a
	// checkpoint of the same spec; a divergence (the fresh proposer
	// proposing something other than the recorded history) fails the run.
	Replay *tune.Replay
}

// names returns the job's repository system/workload naming, deriving
// missing parts from the target name.
func (j Job) names() (system, workload string) {
	system, workload = j.System, j.Workload
	if system != "" && workload != "" {
		return system, workload
	}
	sys, wl := tune.SplitTargetName(j.Target.Name())
	if system == "" {
		system = sys
	}
	if workload == "" {
		workload = wl
	}
	return system, workload
}

// JobResult pairs a job with its outcome.
type JobResult struct {
	Name   string
	Result *tune.TuningResult
	Err    error
}

// RunJobs executes the jobs concurrently — the multi-session scheduler,
// built on Submit. At most Workers jobs hold a slot at once, and each job
// evaluates its own trials sequentially unless it sets Parallel, so total
// concurrency is exactly Workers by default. Cross-session parallelism is
// the scheduler's lever; per-batch fan-out is each job's Parallel. Results
// are returned in job order and each job is deterministic in its own seed,
// so the output is identical to running the jobs sequentially.
func (e *Engine) RunJobs(ctx context.Context, jobs []Job) []JobResult {
	runs := make([]*Run, len(jobs))
	for i := range jobs {
		runs[i] = e.submit(ctx, jobs[i], false)
	}
	out := make([]JobResult, len(jobs))
	for i, r := range runs {
		res, err := r.Wait(nil)
		out[i] = JobResult{Name: jobs[i].Name, Result: res, Err: err}
	}
	return out
}
