package engine

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/tune"
)

// This file is crash-resume: an evaluator that serves the checkpointed
// prefix of a session before handing over to the live one. See
// internal/tune/checkpoint.go for why resume-by-observation-replay is exact.
//
// Replay runs through the ordinary drive loop — the fresh proposer is asked
// for batches and each proposed candidate is verified against the recorded
// history instead of being evaluated. Observe-only replay would not work:
// proposers mutate state on Propose as well as on Observe (a fixed-schedule
// proposer pops its pending queue, a model-based one advances its design
// phase), so skipping the proposals would leave the resumed proposer out of
// sync with the one that produced the checkpoint. Going through the loop
// also re-emits every recorded event, prune notices included, in its
// original position.

// reservedRuns reads the target's run counter without reserving anything:
// ReserveRuns(n) returns the first index of the reserved block (1-based), so
// a zero-width block starts one past the last reserved index.
func reservedRuns(caps tune.Capabilities) int64 {
	return caps.ReserveRuns(0) - 1
}

// replayed serves log's trials, in order, for the batches the fresh proposer
// proposes, then delegates to live.
type replayed struct {
	live tune.Evaluator
	caps tune.Capabilities
	memo map[string]tune.Result // nil: memo disabled
	log  *tune.Replay
	pos  int // log trials served so far
}

func (r *replayed) Evaluate(ctx context.Context, batch []tune.Candidate, yield func(int, tune.Result) bool) error {
	n := len(r.log.Trials)
	if r.pos == n {
		return r.live.Evaluate(ctx, batch, yield)
	}
	if len(batch) > n-r.pos {
		return r.fail("checkpoint ends mid-batch (checkpoints are only written at batch boundaries — is this a checkpoint from a different spec?)")
	}
	for i, c := range batch {
		rt := r.log.Trials[r.pos]
		// Unit-cube coordinates compare bitwise: a deterministic proposer
		// reproduces its history exactly, so any difference is divergence,
		// not rounding.
		if !slices.Equal(c.Config.Vector(), rt.Vector) || tune.NormFidelity(c.Fidelity) != tune.NormFidelity(rt.Result.Fidelity) {
			return r.fail("fresh proposer diverged from the checkpointed history (spec, seed, or warm-start corpus changed since the checkpoint)")
		}
		// Seed the memo so post-resume repeat proposals hit it exactly as
		// they would have without the interruption.
		if r.memo != nil {
			r.memo[candidateKey(c)] = rt.Result
		}
		if r.pos++; r.pos == n {
			// Replayed trials consume no target runs, so the counter is
			// advanced to the checkpointed value explicitly: every
			// post-resume evaluation then draws the noise index it would
			// have drawn in the uninterrupted run.
			if d := r.log.RunsReserved - reservedRuns(r.caps); d > 0 {
				r.caps.ReserveRuns(d)
			}
		}
		if !yield(i, rt.Result) {
			break
		}
	}
	return nil
}

// unfinished reports a session that ended with checkpointed history still
// unserved. Nil-safe: a session that is not resuming has nothing to finish.
func (r *replayed) unfinished() error {
	if r == nil || r.pos == len(r.log.Trials) {
		return nil
	}
	return r.fail("session ended before the checkpointed history did (resume must use the original spec: its budget cut the replay short, or the fresh proposer stopped proposing)")
}

// fail formats a resume failure at the 1-based position of the next
// unserved trial.
func (r *replayed) fail(msg string) error {
	return fmt.Errorf("engine: replay trial %d/%d: %s", r.pos+1, len(r.log.Trials), msg)
}
