package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/tune"
)

// This file is the engine's side of the distributed-evaluation boundary.
// The engine never speaks HTTP itself: a RemoteBackend (internal/dist.Pool
// in production, fakes in tests) hides the fleet behind one blocking call,
// and the engine treats its slots as extra workers pulling from the same
// per-batch queue as the local goroutines. Determinism survives the
// boundary because evaluation is a pure function of (construction seed,
// run index, fidelity, config): whichever process computes a trial, the
// result — and therefore the merged, proposal-ordered event stream — is
// bit-identical.

// RemoteBackend dispatches indexed trial evaluations to a remote evaluator
// fleet. Implementations own lease management, heartbeat-timeout requeueing,
// and bounded retry; the engine only sees the final outcome of each trial.
type RemoteBackend interface {
	// Slots is how many additional evaluation workers the fleet currently
	// provides. The engine reads it at each batch fan-out, so a fleet that
	// grows or drains changes the engine's concurrency at the next batch.
	// Zero means the backend is present but has no capacity; the engine
	// then evaluates everything locally.
	Slots() int
	// Evaluate runs cfg at run index idx and fidelity f (0 or ≥1 means the
	// full workload) on the fleet, blocking until a result arrives, the
	// evaluation is lost beyond recovery, or ctx is cancelled. A returned
	// error satisfying errors.Is(err, ErrEvaluationLost) means the trial
	// exhausted its retries against the fleet; other errors are permanent
	// evaluator-side failures (e.g. the evaluator cannot build the target).
	// Cancelling ctx must cancel the outstanding remote lease promptly.
	Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error)
}

// ErrEvaluationLost is the errors.Is target distinguishing infrastructure
// loss from an ordinary bad configuration: a trial whose evaluation was lost
// (evaluator crash, network partition, heartbeat timeout) and exhausted its
// retries surfaces an error matching this sentinel through Run.Wait, while
// a configuration that merely crashes the simulated system is not an error
// at all — it records a Result with Failed set. Callers drain fleets on the
// former and debug configs on the latter.
var ErrEvaluationLost = errors.New("evaluation lost: exhausted retries")

// EvaluationLostError carries the context of a lost evaluation: which run
// index was in flight, how many attempts were made, and the last transport
// error. It matches ErrEvaluationLost under errors.Is.
type EvaluationLostError struct {
	RunIndex int64
	Attempts int
	Last     error
}

func (e *EvaluationLostError) Error() string {
	return fmt.Sprintf("engine: evaluation of run %d lost after %d attempts: %v", e.RunIndex, e.Attempts, e.Last)
}

// Unwrap exposes the last transport error for errors.As chains.
func (e *EvaluationLostError) Unwrap() error { return e.Last }

// Is matches the ErrEvaluationLost sentinel.
func (e *EvaluationLostError) Is(target error) bool { return target == ErrEvaluationLost }

// remoteSlots returns the backend's current slot count, zero for nil.
func remoteSlots(r RemoteBackend) int {
	if r == nil {
		return 0
	}
	return max(r.Slots(), 0)
}
