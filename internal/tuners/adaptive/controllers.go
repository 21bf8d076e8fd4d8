package adaptive

import (
	"context"

	"repro/internal/mathx/xrand"
	"repro/internal/tune"
)

// PartitionController adapts Spark's shuffle partition count between
// iterations, after Gounaris et al.: spills mean partitions are too coarse
// (grow them); vanishing per-task work means scheduling overhead dominates
// (shrink them). It is a pure tune.EpochController; pair it with
// AdaptiveTuner to use it as a tune.BlockingTuner.
type PartitionController struct {
	lastPerf   float64
	lastAction int // -1 shrink, 0 none, +1 grow
	cooldown   int
}

// The partition knob and its adjustment factors.
const (
	partitionParam = "spark_sql_shuffle_partitions"
	grow, shrink   = 1.6, 0.7
)

// NewPartitionController returns a controller.
func NewPartitionController() *PartitionController { return &PartitionController{} }

// Epoch implements tune.EpochController. A change that regressed the epoch
// objective is reverted and followed by a cooldown, so the controller cannot
// walk the partition count off a cliff.
func (p *PartitionController) Epoch(i int, current tune.Config, prev map[string]float64) tune.Config {
	if i == 0 || prev == nil {
		return current
	}
	if _, ok := current.Space().Param(partitionParam); !ok {
		return current
	}
	perf := epochObjective(prev)
	parts := current.Native(partitionParam)
	defer func() { p.lastPerf = perf }()
	if p.lastAction != 0 && p.lastPerf > 0 && perf > p.lastPerf*1.05 {
		// Revert the regressing change.
		factor := 1 / shrink
		if p.lastAction > 0 {
			factor = 1 / grow
		}
		p.lastAction = 0
		p.cooldown = 2
		return current.WithNative(partitionParam, parts*factor)
	}
	if p.cooldown > 0 {
		p.cooldown--
		p.lastAction = 0
		return current
	}
	switch {
	case prev["spilled_mb"] > 1:
		p.lastAction = 1
		return current.WithNative(partitionParam, parts*grow)
	case prev["spilled_mb"] == 0 && parts > 32:
		// No spill and plenty of headroom: fewer, larger tasks cut
		// scheduling overhead.
		p.lastAction = -1
		return current.WithNative(partitionParam, parts*shrink)
	}
	p.lastAction = 0
	return current
}

// MemoryManager is the online STMM: between DBMS epochs it grows work
// memory while spills persist and shrinks it when memory pressure
// (oversubscription) appears, trading against the buffer pool.
type MemoryManager struct{}

// The DBMS simulator's knobs a MemoryManager manages.
const workParam, bufferParam = "work_mem_mb", "buffer_pool_mb"

// NewMemoryManager returns a manager for the DBMS simulator's knobs.
func NewMemoryManager() *MemoryManager { return &MemoryManager{} }

// Epoch implements tune.EpochController.
func (m *MemoryManager) Epoch(i int, current tune.Config, prev map[string]float64) tune.Config {
	if i == 0 || prev == nil {
		return current
	}
	cfg := current
	if prev["mem_oversubscription"] > 1 {
		// Swapping is catastrophic: shed memory immediately.
		if _, ok := cfg.Space().Param(workParam); ok {
			cfg = cfg.WithNative(workParam, cfg.Native(workParam)*0.5)
		}
		return cfg
	}
	if prev["spilled_queries"] > 0 {
		if _, ok := cfg.Space().Param(workParam); ok {
			cfg = cfg.WithNative(workParam, cfg.Native(workParam)*1.8)
		}
	} else if prev["buffer_hit_ratio"] < 0.85 {
		if _, ok := cfg.Space().Param(bufferParam); ok {
			cfg = cfg.WithNative(bufferParam, cfg.Native(bufferParam)*1.4)
		}
	}
	return cfg
}

// AdaptiveTuner lifts any tune.EpochController into a tune.BlockingTuner:
// each budgeted trial is one adaptive run under the controller.
type AdaptiveTuner struct {
	Label string
	// NewController builds a session's controller: every session gets its
	// own, and that session's runs share it.
	NewController func() tune.EpochController
}

// Name implements tune.Tuner.
func (a *AdaptiveTuner) Name() string { return "adaptive/" + a.Label }

// Check implements tune.Checker.
func (a *AdaptiveTuner) Check(target tune.Target, _ tune.Budget) error {
	_, err := adaptiveTarget(a.Name(), target)
	return err
}

// Tune implements tune.BlockingTuner: every run starts from the default under
// the session's one controller.
func (a *AdaptiveTuner) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	ctl := a.NewController()
	return tuneAdaptive(ctx, a.Name(), target, b, target.Space().Default(),
		func(int, int) tune.EpochController { return ctl })
}

// Recommender is the mrMoulder-style recommendation tuner: cold-start from
// the most similar past session's best configuration, then refine online
// with a small perturbation search between epochs.
type Recommender struct {
	Seed int64
	Repo *tune.Repository
}

// NewRecommender returns a repository-backed recommender.
func NewRecommender(seed int64, repo *tune.Repository) *Recommender {
	return &Recommender{Seed: seed, Repo: repo}
}

// Name implements tune.Tuner.
func (r *Recommender) Name() string { return "adaptive/recommender" }

// warmStart returns the best configuration of the nearest transferable past
// session of the target's system — the warm start's own lookup,
// tune.WarmConfigs with k 1 — or the default when the repository has nothing
// usable.
func (r *Recommender) warmStart(target tune.Target) tune.Config {
	var features map[string]float64
	if d, ok := target.(tune.Describer); ok {
		features = d.WorkloadFeatures()
	}
	system, _ := tune.SplitTargetName(target.Name())
	if cfgs := tune.WarmConfigs(r.Repo, system, features, target.Space(), 1); len(cfgs) > 0 {
		return cfgs[0]
	}
	return target.Space().Default()
}

// Tune implements tune.BlockingTuner. On adaptive targets it refines the warm
// start online with COLT's controller; on plain targets it evaluates the warm
// start directly (recommendation without refinement).
func (r *Recommender) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	start := r.warmStart(target)
	if _, adaptive := target.(tune.AdaptiveTarget); !adaptive {
		return tune.DriveProposer(ctx, r.Name(), target, b, tune.NewRecommendProposer(start, nil))
	}
	return tuneAdaptive(ctx, r.Name(), target, b, start, func(i, epochs int) tune.EpochController {
		return &controller{
			rng:        xrand.New(r.Seed + int64(i)*104729),
			radius:     0.08, // refine, don't wander: the start is informed
			switchCost: switchCost,
			epochs:     epochs,
			space:      target.Space(),
		}
	})
}

var (
	_ tune.EpochController = (*PartitionController)(nil)
	_ tune.EpochController = (*MemoryManager)(nil)
	_ tune.BlockingTuner   = (*AdaptiveTuner)(nil)
	_ tune.BlockingTuner   = (*Recommender)(nil)
)
