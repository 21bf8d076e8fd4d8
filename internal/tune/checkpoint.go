package tune

// This file is the crash-resume vocabulary: the serializable observation
// history a running session periodically checkpoints, and the replay form a
// restarted driver consumes to rebuild the exact session state.
//
// Resume-by-observation-replay is deterministic because every moving part of
// a session is a pure function of its observation history:
//
//   - Proposers (and fidelity proposers) are single-threaded state machines
//     fed observations in proposal order; reconstructing one from (seed,
//     target, budget) and replaying the same observations leaves it in the
//     same state, proposing the same next batch.
//   - Session accounting (trials, sim-time, incumbent) folds over the same
//     records in the same order.
//   - Target noise is keyed by (construction seed, run index, config) —
//     the Target contract — so restoring the reserved-run counter makes
//     every post-resume evaluation draw the identical noise it would have
//     drawn in an uninterrupted run.
//
// Checkpoints are only taken at batch/rung boundaries — every proposed
// configuration of the batch evaluated and observed, no reservation
// outstanding — which is what makes RunsReserved a single well-defined
// number and lets replay hand the driver back exactly at a proposal
// boundary.

// ReplayTrial is one observed trial in a session checkpoint: the proposed
// configuration as its unit-cube vector plus the full recorded result (the
// result carries the fidelity for partial-fidelity screens).
type ReplayTrial struct {
	Vector []float64 `json:"vector"`
	Result Result    `json:"result"`
}

// Replay is the resumable state of an interrupted session: the ordered
// observation history plus the target's reserved-run counter at the
// checkpoint boundary. Drivers consume it before proposing anything new.
type Replay struct {
	Trials       []ReplayTrial `json:"trials"`
	RunsReserved int64         `json:"runs_reserved"`
}

// Empty reports whether there is nothing to replay.
func (r *Replay) Empty() bool { return r == nil || len(r.Trials) == 0 }

// CheckpointState is the in-memory snapshot a driver hands to its checkpoint
// sink at a batch boundary. Trials aliases the session's live slice — sinks
// must copy what they keep (Replay() does).
type CheckpointState struct {
	Trials       []Trial
	RunsReserved int64
}

// Replay converts the snapshot into its serializable replay form.
func (c CheckpointState) Replay() Replay {
	rep := Replay{RunsReserved: c.RunsReserved}
	rep.Trials = make([]ReplayTrial, len(c.Trials))
	for i, t := range c.Trials {
		rep.Trials[i] = ReplayTrial{Vector: t.Config.Vector(), Result: t.Result}
	}
	return rep
}
