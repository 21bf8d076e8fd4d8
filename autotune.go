// Package repro is the public facade of the autotune library: a faithful,
// runnable reproduction of "Speedup Your Analytics: Automatic Parameter
// Tuning for Databases and Big Data Systems" (Lu, Chen, Herodotou, Babu;
// PVLDB 12(12), 2019), grown into a servable tuning system.
//
// The facade wires together the three simulated systems (DBMS, Hadoop
// MapReduce, Spark), the workload suite, and one tuner per surveyed
// methodology across the paper's six categories. The blocking path
// constructs a target and tuner by name and tunes synchronously:
//
//	target, _ := repro.NewTarget("dbms", "tpch", 42)
//	tuner, _ := repro.NewTuner("ituned", repro.TunerOptions{Seed: 42})
//	result, _ := repro.Tune(context.Background(), target, tuner, tune.Budget{Trials: 30}, 1)
//
// The session-handle path describes the same run declaratively and returns
// a live handle with an ordered event stream and pause/resume/stop control
// (identical results for the same spec and seed, at any parallelism):
//
//	run, _ := repro.Start(ctx, repro.Spec{
//		System: "dbms", Workload: "tpch", Tuner: "ituned",
//		Seed: 42, Budget: repro.Budget{Trials: 30},
//	})
//	for ev := range run.Events() { ... }
//	result, _ := run.Wait(ctx)
//
// A session that learns from, and adds to, a durable repository of past
// sessions is built on the open store (internal/tune/store) — the one way the
// CLI and the daemon launch theirs:
//
//	st, _ := store.Open(dir)
//	job, _ := spec.JobOn(st, "", nil, nil) // spec.WarmStart seeds from st; the result is archived into st
//	run := repro.NewEngine(repro.EngineOptions{}).Submit(job)
//
// External systems and algorithms plug in by name through RegisterTarget
// and RegisterTuner; cmd/autotuned serves Start over HTTP/JSON with
// server-sent event streams. Everything underneath lives in internal/
// packages; see DESIGN.md for the architecture.
package repro

import (
	"context"

	"repro/internal/engine"
	"repro/internal/tune"
)

// Re-exported core types so callers work entirely through this package.
type (
	// Target is the black box a tuner optimizes.
	Target = tune.Target
	// Tuner is a named tuning approach; Tune runs it.
	Tuner = tune.Tuner
	// Budget caps trials and simulated time.
	Budget = tune.Budget
	// Config is a point in a configuration space.
	Config = tune.Config
	// Repository is the plain in-memory corpus of past tuning sessions.
	Repository = tune.Repository
	// SessionRecord is one archived tuning session: what the durable
	// repository stores and what Job.Archive hands off.
	SessionRecord = tune.SessionRecord
	// TuningResult is the outcome of a tuning session.
	TuningResult = tune.TuningResult
	// Proposer is the ask/tell face of a tuning algorithm.
	Proposer = tune.Proposer
	// BatchTuner is a Tuner that also exposes ask/tell proposal.
	BatchTuner = tune.BatchTuner
	// FidelityTarget is a Target with a cheaper low-fidelity evaluation
	// path (sampled workload, input fraction, trace prefix).
	FidelityTarget = tune.FidelityTarget
	// Job is one (target, tuner) session for TuneJobs and Engine.Submit.
	Job = engine.Job
	// JobResult pairs a Job with its outcome.
	JobResult = engine.JobResult
	// Event is one entry in a session's ordered event stream.
	Event = tune.Event
	// EventKind names one kind of session event.
	EventKind = tune.EventKind
	// StreamSummary is the compacted replacement for an evicted event-stream
	// prefix, carried by the synthetic stream_checkpoint/stream_lagged
	// events bounded subscriptions emit.
	StreamSummary = tune.StreamSummary
	// CheckpointState is the resumable session snapshot handed to
	// Job.Checkpoint hooks at batch boundaries.
	CheckpointState = tune.CheckpointState
	// Replay is the serialized observation history a resumed session feeds
	// back through a fresh proposer (Job.Replay).
	Replay = tune.Replay
	// Run is the live handle to a submitted tuning session: an ordered
	// Events() stream, Pause/Resume/Stop control, and Wait for the result.
	Run = engine.Run
	// RunState describes where a Run is in its lifecycle.
	RunState = engine.RunState
	// RemoteBackend is an evaluator fleet's engine-facing surface: extra
	// trial-evaluation slots behind an RPC boundary (internal/dist.Pool
	// implements it). Results are identical with or without one.
	RemoteBackend = engine.RemoteBackend
	// EvaluationLostError reports a trial whose remote evaluation was lost
	// (evaluator crashes, heartbeat timeouts) through every configured
	// retry — infrastructure failure, distinguishable from an ordinary
	// failed trial with errors.Is(err, ErrEvaluationLost).
	EvaluationLostError = engine.EvaluationLostError
)

// ErrEvaluationLost matches (via errors.Is) session errors caused by remote
// evaluations exhausting their retries, as opposed to ordinary trial
// failures, which are recorded in the session rather than raised.
var ErrEvaluationLost = engine.ErrEvaluationLost

// The ordered event vocabulary emitted by a session, re-exported from the
// core: for a fixed spec and seed the sequence is byte-identical at any
// parallelism.
const (
	TrialStarted      = tune.TrialStarted
	TrialDone         = tune.TrialDone
	IncumbentImproved = tune.IncumbentImproved
	TrialPruned       = tune.TrialPruned
	SessionDone       = tune.SessionDone
)

// Synthetic per-subscriber stream events (never part of the recorded
// sequence): compaction notices from bounded event buffers and the daemon's
// graceful-shutdown terminator.
const (
	StreamCheckpoint = tune.StreamCheckpoint
	StreamLagged     = tune.StreamLagged
	Draining         = tune.Draining
)

// DefaultEventBuffer is the per-run event retention bound when a Job does
// not choose one.
const DefaultEventBuffer = engine.DefaultEventBuffer

// Run lifecycle states, re-exported from the engine.
const (
	RunPending = engine.RunPending
	RunRunning = engine.RunRunning
	RunPaused  = engine.RunPaused
	RunDone    = engine.RunDone
	RunFailed  = engine.RunFailed
)

// Engine is the concurrent tuning engine; EngineOptions sizes its scheduler,
// and each submitted Job configures its own session. NewEngine is the
// full-control constructor — Tune, TuneJobs, and Start below are the
// common-case conveniences.
type (
	Engine        = engine.Engine
	EngineOptions = engine.Options
)

// NewEngine returns a concurrent tuning engine.
func NewEngine(o EngineOptions) *Engine { return engine.New(o) }

// Tune is the blocking call for every tuner: it runs tuner against target
// through the concurrent engine with the given parallelism (≤1 or 0 means
// sequential). Every tuner that proposes configurations is ask/tell and has
// each proposed batch fanned out to a worker pool (a sequential search body
// proposes one configuration per batch); only the adaptive family — online
// controllers whose trial is a whole controlled run, tune.BlockingTuner —
// runs its own loop inline. For a fixed seed the result is identical at any
// parallelism — and identical to what the session-handle path (Start)
// produces for the equivalent Spec.
func Tune(ctx context.Context, target Target, tuner Tuner, b Budget, parallel int) (*TuningResult, error) {
	r := TuneJobs(ctx, []Job{{Name: tuner.Name(), Tuner: tuner, Target: target, Budget: b, Parallel: parallel}}, 1)[0]
	return r.Result, r.Err
}

// TuneJobs runs many independent tuning sessions concurrently, at most
// parallel at a time, returning results in job order. Each job needs its
// own Target instance.
func TuneJobs(ctx context.Context, jobs []Job, parallel int) []JobResult {
	if parallel <= 0 {
		parallel = 1
	}
	return engine.New(engine.Options{Workers: parallel}).RunJobs(ctx, jobs)
}
