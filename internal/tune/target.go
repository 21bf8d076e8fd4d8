package tune

import "strings"

// Result is the outcome of running a target once under a configuration.
// Time is the objective (simulated execution seconds, lower is better).
// Metrics carries the internal runtime counters the system exposed during
// the run (buffer hit ratios, spills, GC time, shuffle bytes, …); machine
// learning tuners in the style of OtterTune consume these.
type Result struct {
	// Time is the end-to-end simulated execution time in seconds.
	Time float64 `json:"time"`
	// Cost is the monetary cost of the run in arbitrary dollars
	// (cluster-seconds priced by node class); zero when not modeled.
	Cost float64 `json:"cost,omitempty"`
	// Failed reports that the configuration crashed or timed out the run
	// (out of memory, task OOM, deadlock storm). Time then holds the
	// penalized effective time observed before failure.
	Failed bool `json:"failed,omitempty"`
	// FailReason explains a failure for humans.
	FailReason string `json:"fail_reason,omitempty"`
	// Metrics are internal runtime counters keyed by metric name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Fidelity is the fraction of the full workload this run evaluated
	// (see FidelityTarget). Zero means full fidelity; partial-fidelity
	// results are comparable only within their own rung, so sessions never
	// let them become the incumbent.
	Fidelity float64 `json:"fidelity,omitempty"`
}

// FullFidelity reports whether the result measured the complete workload.
func (r Result) FullFidelity() bool { return NormFidelity(r.Fidelity) == 0 }

// Objective returns the value tuners minimize: the runtime, heavily
// penalized on failure so optimizers steer away from crashing regions while
// still preserving gradient information from Time.
func (r Result) Objective() float64 {
	if r.Failed {
		return r.Time * 10
	}
	return r.Time
}

// Target is the black box a tuner optimizes: a system bound to a workload.
// Every run is a pure function of (construction seed, run index, config):
// the run's noise stream is keyed by a run index rather than by call order,
// so repeated runs of one configuration vary realistically yet any run can
// be reproduced on its own. That is what lets the engine reserve a block of
// indices in proposal order, fan the runs out to workers or remote
// evaluators, merge results in index order, and resume a checkpointed
// session by restoring the counter: the trial sequence is bit-identical at
// any degree of parallelism. cluster.Runs meets this contract for a
// simulator built over one eval function.
type Target interface {
	// Name identifies the system+workload pair, e.g. "dbms/tpch".
	Name() string
	// Space returns the configuration space of the target.
	Space() *Space
	// Run executes the workload once under cfg on the next run index:
	// shorthand for RunIndexed(ReserveRuns(1), cfg).
	Run(cfg Config) Result
	// ReserveRuns atomically claims n run indices and returns the first
	// (1-based); ReserveRuns(0) reads the counter without claiming any.
	ReserveRuns(n int64) int64
	// RunIndexed executes the workload once under cfg using run index i's
	// noise stream. It must be safe for concurrent use and deterministic
	// in (seed, i, cfg).
	RunIndexed(i int64, cfg Config) Result
}

// SplitTargetName splits a target name ("system/workload") at its first '/'.
// A name without one is all system: the workload is then "".
func SplitTargetName(name string) (system, workload string) {
	system, workload, _ = strings.Cut(name, "/")
	return system, workload
}

// SpecProvider is implemented by targets that can describe their hardware
// and deployment (total RAM, cores, node count, disk and network bandwidth,
// JVM heap, …). Rule-based tuners consult specs: "set the buffer pool to 25%
// of RAM" requires knowing RAM.
type SpecProvider interface {
	// Specs returns hardware/deployment facts keyed by conventional names:
	// "ram_mb", "cores", "nodes", "disk_mbps", "net_mbps", "heap_mb".
	Specs() map[string]float64
}

// EpochController drives a target that supports mid-run reconfiguration.
// Before each epoch the target reports the metrics observed during the
// previous epoch and the controller returns the configuration to use next.
// Adaptive tuners (COLT-style, dynamic partitioning) implement this.
type EpochController interface {
	// Epoch is called before epoch i (0-based) with the configuration in
	// force and the metrics of the previous epoch (nil for i == 0). It
	// returns the configuration to apply for epoch i.
	Epoch(i int, current Config, prev map[string]float64) Config
}

// AdaptiveTarget is implemented by targets whose workload runs in epochs
// (OLTP windows, Spark iterations, MapReduce waves) and that can change
// configuration between epochs.
type AdaptiveTarget interface {
	Target
	// Epochs returns how many epochs one run comprises.
	Epochs() int
	// RunAdaptive executes the workload, consulting ctrl between epochs,
	// and returns the aggregate result.
	RunAdaptive(start Config, ctrl EpochController) Result
}

// Describer is implemented by targets that can characterize their workload
// with a feature vector (input size, operator mix, skew, …). Recommendation
// tuners (mrMoulder-style) match new jobs against a repository by these
// features.
type Describer interface {
	// WorkloadFeatures returns a deterministic feature map describing the
	// workload independent of configuration.
	WorkloadFeatures() map[string]float64
}
