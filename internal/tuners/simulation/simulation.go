// Package simulation implements the survey's third category: performance
// prediction by simulating the system rather than modeling it with closed
// formulas or running it repeatedly.
//
//   - TraceWhatIf reproduces Narayanan et al. (MASCOTS 2005): capture a
//     resource-demand trace from one instrumented run, then replay it under
//     hypothetical resource assignments (cache sizes, device speeds,
//     concurrency) to predict runtimes for unseen configurations; search the
//     replay model for a recommendation.
//   - ADDM reproduces Oracle's Automatic Database Diagnostic Monitor (Dias
//     et al., CIDR 2005): attribute observed time to wait components (CPU,
//     I/O, locks, commit stalls, swapping), identify the top bottleneck, and
//     apply a targeted reconfiguration rule; iterate run → diagnose → adjust.
//
// Simulation-based approaches are accurate about the dynamics they simulate
// and cheap compared to experiment-driven search, but blind to anything the
// trace or wait model does not capture — the Table-1 experiment makes that
// concrete.
package simulation

import (
	"math"

	"repro/internal/sysmodel/trace"
	"repro/internal/tune"
)

// TraceWhatIf is the trace-driven what-if tuner. It applies to targets that
// expose resource metrics compatible with the DBMS simulator (cpu_seconds,
// seq_read_mb, rand_read_mb, temp_io_mb) and hardware specs.
type TraceWhatIf struct {
	// Seed drives the model search.
	Seed int64
}

const (
	// traceSearchBudget is the number of replay evaluations.
	traceSearchBudget = 2000
	// traceProbeRuns is how many instrumented runs to capture.
	traceProbeRuns = 1
)

// NewTraceWhatIf returns a trace-based what-if tuner.
func NewTraceWhatIf(seed int64) *TraceWhatIf { return &TraceWhatIf{Seed: seed} }

// Name implements tune.Tuner.
func (t *TraceWhatIf) Name() string { return "simulation/trace-whatif" }

// TraceFromMetrics reconstructs a resource trace from one run's counters.
func TraceFromMetrics(m, specs map[string]float64) *trace.Trace {
	hit := m["buffer_hit_ratio"]
	if hit >= 1 {
		hit = 0.99
	}
	// Observed misses → full demand.
	seqDemand := m["seq_read_mb"] / (1 - hit + 1e-9)
	randDemand := m["rand_read_mb"] / (1 - hit + 1e-9)
	return &trace.Trace{
		Ops: []trace.Op{{
			CPUSeconds: m["cpu_seconds"] * math.Max(specs["clock_ghz"], 1),
			SeqReadMB:  seqDemand,
			RandReadMB: randDemand,
			WriteMB:    m["wal_mb"],
			TempMB:     m["temp_io_mb"],
			// The capture ran at the default 4 MB work_mem; spills came
			// from operators roughly a tenth of the cacheable set.
			OperatorMB:       math.Max(seqDemand*0.1, 16),
			CaptureWorkMemMB: 4,
			FixedSeconds:     m["lock_wait_s"]/math.Max(m["active_connections"], 1) + m["commit_stall_s"],
			CacheableMB:      seqDemand + randDemand,
			Parallel:         true,
		}},
		Concurrency: math.Max(m["active_connections"], 1),
	}
}

// ResourcesFor derives the hypothetical resource assignment a configuration
// implies on the given hardware.
func ResourcesFor(cfg tune.Config, specs map[string]float64) trace.Resources {
	cores := specs["cores"]
	if cores == 0 {
		cores = 4
	}
	clock := specs["clock_ghz"]
	if clock == 0 {
		clock = 2
	}
	disk := specs["disk_mbps"]
	if disk == 0 {
		disk = 100
	}
	r := trace.Resources{
		Cores:         cores,
		ClockGHz:      clock,
		SeqMBps:       disk,
		RandMBps:      disk / 10,
		WriteMBps:     disk * 0.8,
		CacheExponent: 0.7,
	}
	if _, ok := cfg.Space().Param("buffer_pool_mb"); ok {
		r.CacheMB = cfg.Float("buffer_pool_mb")
	}
	if _, ok := cfg.Space().Param("effective_io_concurrency"); ok {
		ioc := float64(cfg.Int("effective_io_concurrency"))
		r.RandMBps = math.Min(disk, disk/10*math.Sqrt(math.Min(ioc, 32)))
	}
	if _, ok := cfg.Space().Param("max_parallel_workers"); ok {
		r.Cores = math.Min(cores, math.Max(1, float64(cfg.Int("max_parallel_workers"))))
	}
	if _, ok := cfg.Space().Param("work_mem_mb"); ok {
		r.WorkMemMB = cfg.Float("work_mem_mb")
	}
	// Memory over-subscription is visible to the simulator too: penalize
	// infeasible cache sizes so the search avoids them.
	ram := specs["ram_mb"]
	if ram > 0 && r.CacheMB > 0.9*ram {
		r.SeqMBps /= 8
		r.RandMBps /= 8
	}
	return r
}
