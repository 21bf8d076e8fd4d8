// Package dist is the distributed trial-evaluation subsystem: an evaluator
// fleet behind an HTTP/JSON RPC boundary. An Evaluator serves trial
// evaluations (cmd/autotune-evaluator is the thin binary around it); a Pool
// is the coordinator-side client that leases trials to the fleet with
// heartbeat monitoring, requeues lost leases to other evaluators with
// bounded backoff, and plugs into the engine as an engine.RemoteBackend.
//
// Determinism is what makes the boundary exact rather than approximate:
// every sysmodel target is a pure function of (construction seed, run
// index, fidelity, config), so an evaluator that rebuilds the target from
// the assignment's sysmodel computes the bit-identical Result the
// coordinator would have computed locally. Run-index reservation stays on
// the coordinator, merge order stays proposal order, and the event stream
// is byte-identical whether trials ran locally, on 4 goroutines, or across
// N remote processes.
package dist

import (
	"encoding/json"
	"fmt"
	"math"

	repro "repro"
	"repro/internal/tune"
)

// SysModel names the target an assignment evaluates against: the same
// (system, workload, seed, options) tuple repro.NewTarget consumes, so any
// process with the registry can reconstruct the identical simulated system.
type SysModel struct {
	System   string              `json:"system"`
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Target   repro.TargetOptions `json:"target,omitzero"`
}

// Validate rejects sysmodels that no evaluator could build.
func (m SysModel) Validate() error {
	if m.System == "" || m.Workload == "" {
		return fmt.Errorf("dist: sysmodel requires system and workload (got %q, %q)", m.System, m.Workload)
	}
	return nil
}

// key renders the sysmodel canonically for target-cache lookup.
func (m SysModel) key() string {
	b, _ := json.Marshal(m)
	return string(b)
}

// TrialAssignment is one leased trial: evaluate Config (unit-cube
// coordinates, decoded against the rebuilt target's space) at RunIndex's
// noise stream and Fidelity (0 or ≥1 means the full workload).
type TrialAssignment struct {
	// ID names the lease; completions echo it so a coordinator can match
	// results to outstanding leases.
	ID       string    `json:"id"`
	RunIndex int64     `json:"run_index"`
	Fidelity float64   `json:"fidelity,omitempty"`
	Config   []float64 `json:"config"`
	SysModel SysModel  `json:"sysmodel"`
}

// Validate rejects assignments an evaluator could not execute faithfully.
// It is stable under a JSON round trip: the same assignment validates
// identically on both sides of the wire.
func (a TrialAssignment) Validate() error {
	if a.RunIndex < 0 {
		return fmt.Errorf("dist: run_index must be ≥ 0, got %d", a.RunIndex)
	}
	if math.IsNaN(a.Fidelity) || a.Fidelity < 0 || a.Fidelity > 1 {
		return fmt.Errorf("dist: fidelity must be within [0, 1], got %v", a.Fidelity)
	}
	for i, v := range a.Config {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dist: config coordinate %d is not finite", i)
		}
	}
	return a.SysModel.Validate()
}

// TrialCompletion reports one evaluated assignment back. Err carries an
// evaluator-side build or dispatch failure (unknown system, wrong space
// dimension) — deterministic failures that retrying on another evaluator
// would only reproduce. Infrastructure loss never appears here: a lost
// evaluator simply never completes, which the coordinator detects by
// heartbeat timeout.
type TrialCompletion struct {
	ID       string      `json:"id"`
	RunIndex int64       `json:"run_index"`
	Result   tune.Result `json:"result"`
	Err      string      `json:"error,omitempty"`
}

// Validate mirrors TrialAssignment.Validate for the return leg.
func (c TrialCompletion) Validate() error {
	if c.RunIndex < 0 {
		return fmt.Errorf("dist: run_index must be ≥ 0, got %d", c.RunIndex)
	}
	if math.IsNaN(c.Result.Time) || math.IsInf(c.Result.Time, 0) {
		return fmt.Errorf("dist: result time is not finite")
	}
	return nil
}

// frame is one line of the /evaluate ndjson response stream: heartbeats
// while the evaluation is queued or running, then exactly one completion.
// The stream doubles as the lease — a coordinator that stops seeing frames
// within its heartbeat timeout declares the lease lost and requeues.
type frame struct {
	Heartbeat  bool             `json:"heartbeat,omitempty"`
	Completion *TrialCompletion `json:"completion,omitempty"`
}

// registration is the body of POST /register: the coordinator announcing
// itself to an evaluator. The reply is the evaluator's Info.
type registration struct {
	Coordinator string `json:"coordinator"`
}

// Info describes one evaluator: its self-chosen name, how many concurrent
// evaluations it admits, its heartbeat interval (which times its leases),
// and its lifetime counters.
type Info struct {
	Name        string `json:"name"`
	Workers     int    `json:"workers"`
	HeartbeatMs int64  `json:"heartbeat_ms"`
	Evaluations int64  `json:"evaluations"`
	InFlight    int64  `json:"in_flight"`
}
