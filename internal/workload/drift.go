package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/tune"
)

// This file adds time-varying workloads: a Drift target runs one of several
// phase targets depending on how far into the session a trial falls, so a
// tuner sees the workload change under it mid-session — the scenario the
// drift detector (tune.DriftDetector) exists for. Two shapes cover the
// scenarios in the tuning literature:
//
//   - Shift (cycle=false): phases run once in order and the last phase holds
//     forever — e.g. an OLTP system whose traffic turns analytical after a
//     data-science team onboards ("oltp→olap shift").
//   - Diurnal (cycle=true): the phase schedule repeats — e.g. low overnight
//     load alternating with a high daytime client count.
//
// Determinism under parallelism: the phase a trial runs against is keyed by
// the trial's 1-based GLOBAL run index, claimed through this target's own
// atomic counter exactly like any target's noise stream. Workers
// evaluating out of order still hit the same phase per index, so event
// streams stay byte-identical at any worker count, and checkpoint-resume
// replays land every historical trial in its original phase.

// Phase is one leg of a drifting workload: a stationary target and how many
// run indices it owns before the schedule moves on.
type Phase struct {
	// Name labels the phase in the drift target's name ("oltp", "peak").
	Name string
	// Target is the stationary system+workload this phase runs.
	Target tune.Target
	// Runs is how many consecutive run indices the phase owns; > 0.
	Runs int64
}

// Drift is a tune.Target that schedules trials across phases.
// All phases must share one configuration space: drift changes the
// workload, not the system being tuned.
type Drift struct {
	name   string
	phases []Phase
	cycle  bool
	period int64 // sum of phase lengths
	runs   atomic.Int64
}

// NewDrift builds a drifting target named name (which becomes the workload
// part of Name(), e.g. "oltp-olap-shift"). With cycle the schedule repeats
// (diurnal); without it the last phase holds once reached (shift).
func NewDrift(name string, cycle bool, phases ...Phase) (*Drift, error) {
	if len(phases) < 2 {
		return nil, fmt.Errorf("workload: drift needs at least two phases, got %d", len(phases))
	}
	var period int64
	names := phases[0].Target.Space().Names()
	for i, ph := range phases {
		if ph.Target == nil || ph.Runs <= 0 {
			return nil, fmt.Errorf("workload: drift phase %d (%q) needs a target and positive run count", i, ph.Name)
		}
		got := ph.Target.Space().Names()
		if len(got) != len(names) {
			return nil, fmt.Errorf("workload: drift phase %d (%q) has a different configuration space", i, ph.Name)
		}
		for j := range names {
			if got[j] != names[j] {
				return nil, fmt.Errorf("workload: drift phase %d (%q) has a different configuration space", i, ph.Name)
			}
		}
		period += ph.Runs
	}
	return &Drift{name: name, phases: phases, cycle: cycle, period: period}, nil
}

// Name implements tune.Target: the phase-0 system plus the drift name, so
// repository archival groups drift sessions under the same system as their
// stationary kin ("dbms/oltp-olap-shift").
func (d *Drift) Name() string {
	sys, _ := tune.SplitTargetName(d.phases[0].Target.Name())
	return sys + "/" + d.name
}

// Space implements tune.Target.
func (d *Drift) Space() *tune.Space { return d.phases[0].Target.Space() }

// phaseOf maps a 1-based global run index to its scheduled phase.
func (d *Drift) phaseOf(i int64) tune.Target {
	if i < 1 {
		i = 1
	}
	off := i - 1
	if d.cycle {
		off %= d.period
	}
	for _, ph := range d.phases {
		if off < ph.Runs {
			return ph.Target
		}
		off -= ph.Runs
	}
	return d.phases[len(d.phases)-1].Target // shift: last phase holds
}

// Run implements tune.Target.
func (d *Drift) Run(cfg tune.Config) tune.Result { return d.RunIndexed(d.ReserveRuns(1), cfg) }

// ReserveRuns implements tune.Target.
func (d *Drift) ReserveRuns(n int64) int64 { return d.runs.Add(n) - n + 1 }

// RunIndexed implements tune.Target: the scheduled phase runs the
// trial under the GLOBAL index, so a phase target's noise stream is keyed
// the same way whether it runs standalone or inside a drift schedule.
func (d *Drift) RunIndexed(i int64, cfg tune.Config) tune.Result {
	return d.phaseOf(i).RunIndexed(i, cfg)
}

// WorkloadFeatures implements tune.Describer when phase 0's target does:
// warm starting maps a drifting session by its opening phase — the workload
// the session actually begins against.
func (d *Drift) WorkloadFeatures() map[string]float64 {
	if desc, ok := d.phases[0].Target.(tune.Describer); ok {
		return desc.WorkloadFeatures()
	}
	return nil
}

// Specs implements tune.SpecProvider when phase 0's target does. The
// hardware does not drift — only the workload — so any phase would answer
// the same.
func (d *Drift) Specs() map[string]float64 {
	if sp, ok := d.phases[0].Target.(tune.SpecProvider); ok {
		return sp.Specs()
	}
	return nil
}
