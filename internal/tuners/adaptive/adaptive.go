// Package adaptive implements the survey's sixth category: tuners that
// reconfigure the system while the workload runs, using the epoch hooks
// exposed by tune.AdaptiveTarget.
//
//   - COLT (Schnaitter et al., SIGMOD 2006 demo): epoch-based online tuning
//     with explicit cost-vs-gain accounting — a candidate configuration is
//     adopted only when its observed gain outweighs the switch cost over the
//     remaining epochs.
//   - PartitionController (Gounaris et al., TPDS 2017): dynamic adjustment
//     of Spark's shuffle partitioning between iterations from observed
//     spill and task-overhead signals.
//   - MemoryManager: an online STMM — shifts DBMS work memory in response
//     to observed spills and cache pressure epoch by epoch.
//   - Recommender (mrMoulder, Cai et al., FGCS 2019): cold-starts a new job
//     from the most similar past session in a repository, then refines
//     online.
//
// Adaptive tuning shines on long-running and ad-hoc work — it needs no
// offline phase at all — but every probe epoch executes at the candidate's
// speed, so bad probes cost real time; the cost-gain ledger below is the
// guard the paper describes.
package adaptive

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mathx/xrand"
	"repro/internal/tune"
)

// COLT is an online epoch tuner usable as a tune.EpochController and, via
// Tune, as a tune.BlockingTuner over adaptive targets.
type COLT struct {
	Seed int64
}

const (
	// coltRadius is the perturbation radius for candidate generation.
	coltRadius = 0.18
	// switchCost is the assumed epochs-equivalent cost of adopting a new
	// configuration.
	switchCost = 0.08
	// coltTopKnobs bounds online probing to the highest-impact parameters: a
	// live system cannot afford to wiggle every knob.
	coltTopKnobs = 6
	// sessionRuns is how many adaptive runs a session performs within its
	// trial budget: the first explores, later ones start from the best found
	// so far.
	sessionRuns = 2
)

// NewCOLT returns a COLT tuner.
func NewCOLT(seed int64) *COLT { return &COLT{Seed: seed} }

// Name implements tune.Tuner.
func (t *COLT) Name() string { return "adaptive/colt" }

// controller is one adaptive run's state.
type controller struct {
	rng        *rand.Rand
	radius     float64
	switchCost float64
	epochs     int

	space *tune.Space
	// probeIdx limits perturbation to these parameter indices (nil = all).
	probeIdx []int
	current  tune.Config
	curPerf  float64 // smoothed epoch objective of current config
	haveCur  bool
	probing  bool
	probeCfg tune.Config
	// lastDelta remembers the direction of the last adopted probe so the
	// next probe continues along it (directional momentum); pendingDelta is
	// the in-flight probe's direction.
	lastDelta    []float64
	pendingDelta []float64
	probeCursor  int

	best     tune.Config
	bestPerf float64
}

// perturb probes one eligible knob at a time (round-robin), continuing the
// last successful direction when one exists. Single-knob probes keep the
// observed gain attributable — the property COLT's cost/gain ledger needs.
func (c *controller) perturb(cfg tune.Config) tune.Config {
	x := cfg.Vector()
	delta := make([]float64, len(x))
	idx := c.probeIdx
	if idx == nil {
		idx = make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
	}
	if c.lastDelta != nil {
		// Momentum: push the previously adopted direction further.
		for j := range delta {
			delta[j] = 1.4 * c.lastDelta[j]
		}
	} else {
		j := idx[c.probeCursor%len(idx)]
		c.probeCursor++
		step := c.radius * (1 + c.rng.Float64())
		if c.rng.Intn(2) == 0 {
			step = -step
		}
		delta[j] = step
	}
	for j := range delta {
		if delta[j] != 0 {
			x[j] = clamp01(x[j] + delta[j])
		}
	}
	out := c.space.FromVector(x)
	c.pendingDelta = delta
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Epoch implements tune.EpochController with COLT's observe → probe →
// adopt-or-rollback cycle. Epoch metrics arrive via prev; the objective
// proxy is the epoch's elapsed share, approximated here by io+cpu time
// metrics when present, else by a counter the caller provides as
// "epoch_time".
func (c *controller) Epoch(i int, current tune.Config, prev map[string]float64) tune.Config {
	perf := epochObjective(prev)
	if i == 0 {
		c.current = current
		c.best = current
		c.bestPerf = math.Inf(1)
		return current
	}
	switch {
	case c.probing:
		// prev measured the probe configuration.
		c.probing = false
		remaining := float64(c.epochs - i)
		gain := c.curPerf - perf
		if c.haveCur && gain > 0 && gain*remaining > c.switchCost*c.curPerf {
			// Adopt: the gain over remaining epochs pays the switch cost.
			c.current = c.probeCfg
			c.curPerf = perf
			c.lastDelta = c.pendingDelta // keep pushing this direction
		} else {
			// Roll back and abandon the direction.
			c.lastDelta = nil
			if perf < c.bestPerf {
				c.best, c.bestPerf = c.probeCfg, perf
			}
			return c.current
		}
	default:
		// prev measured the current configuration: smooth its estimate.
		if !c.haveCur {
			c.curPerf = perf
			c.haveCur = true
		} else {
			c.curPerf = 0.7*c.curPerf + 0.3*perf
		}
	}
	if c.curPerf < c.bestPerf {
		c.best, c.bestPerf = c.current, c.curPerf
	}
	// Launch a new probe every other epoch.
	if i%2 == 0 && i < c.epochs-1 {
		c.probeCfg = c.perturb(c.current)
		c.probing = true
		return c.probeCfg
	}
	return c.current
}

// epochObjective condenses epoch metrics into a scalar to minimize.
func epochObjective(m map[string]float64) float64 {
	if m == nil {
		return math.Inf(1)
	}
	if v, ok := m["epoch_time"]; ok {
		return v
	}
	// Fall back to time-like components the simulators expose.
	return m["io_time_s"] + m["cpu_time_s"] + m["lock_wait_s"] + m["spilled_mb"]*0.001
}

// Controller returns a fresh tune.EpochController configured like the tuner,
// for callers that drive tune.AdaptiveTarget.RunAdaptive directly (e.g. a
// streaming deployment adapting from an informed static configuration).
func (t *COLT) Controller(space *tune.Space, rng *rand.Rand, epochs int) tune.EpochController {
	return &controller{
		rng:        rng,
		radius:     coltRadius,
		switchCost: switchCost,
		epochs:     epochs,
		space:      space,
		probeIdx:   probeIndices(space),
	}
}

// probeIndices selects the runtime-adjustable, effective knobs to probe: a
// live system cannot restart mid-workload, and inert knobs waste probe epochs.
func probeIndices(space *tune.Space) []int {
	topK := min(coltTopKnobs, space.Dim())
	probeIdx := make([]int, 0, topK)
	for _, name := range space.ByImpact() {
		p, _ := space.Param(name)
		if p.Restart || p.Inert {
			continue
		}
		probeIdx = append(probeIdx, space.IndexOf(name))
		if len(probeIdx) == topK {
			break
		}
	}
	return probeIdx
}

// Check implements tune.Checker.
func (t *COLT) Check(target tune.Target, _ tune.Budget) error {
	_, err := adaptiveTarget(t.Name(), target)
	return err
}

// Tune implements tune.BlockingTuner over adaptive targets: each budgeted
// trial is one adaptive run; within a run, reconfiguration is free of trial
// cost but pays real (simulated) time, exactly the trade the category makes.
// The first run explores from the default; later runs start where the
// previous one converged.
func (t *COLT) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	space := target.Space()
	return tuneAdaptive(ctx, t.Name(), target, b, space.Default(), func(r, epochs int) tune.EpochController {
		return t.Controller(space, xrand.New(t.Seed+int64(r)*7919), epochs)
	})
}

// adaptiveTarget is the family's one precondition (and its one message).
func adaptiveTarget(name string, target tune.Target) (tune.AdaptiveTarget, error) {
	at, ok := target.(tune.AdaptiveTarget)
	if !ok {
		return nil, fmt.Errorf("%s: target %q does not support online reconfiguration", name, target.Name())
	}
	return at, nil
}

// tuneAdaptive is the adaptive family's one run loop. Its unit of work is a
// controlled run — AdaptiveTarget.RunAdaptive(start, controller) — not a
// configuration, which is why it charges a session directly instead of going
// through tune.Drive (DESIGN.md §2, "Why the adaptive family stays outside"):
// up to sessionRuns runs within the trial budget, each recorded as one trial
// under its start configuration; a COLT controller's converged configuration
// is where the next run starts and what a run-less session recommends.
func tuneAdaptive(ctx context.Context, name string, target tune.Target, b tune.Budget, start tune.Config, ctl func(r, epochs int) tune.EpochController) (*tune.TuningResult, error) {
	at, err := adaptiveTarget(name, target)
	if err != nil {
		return nil, err
	}
	s := tune.NewSession(ctx, target, b)
	for r := 0; r < min(sessionRuns, b.Trials) && !s.Exhausted(); r++ {
		c := ctl(r, at.Epochs())
		s.Record(tune.Candidate{Config: start}, at.RunAdaptive(start, c))
		if colt, ok := c.(*controller); ok {
			start = colt.best
		}
	}
	return s.Finish(name, start), nil
}

var _ tune.BlockingTuner = (*COLT)(nil)
var _ tune.EpochController = (*controller)(nil)
