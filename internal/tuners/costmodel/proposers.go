package costmodel

import (
	"fmt"
	"math"

	"repro/internal/mathx/linalg"
	"repro/internal/mathx/opt"
	"repro/internal/mathx/xrand"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/sysmodel/spark"
	"repro/internal/tune"
)

// Ask/tell forms of the cost-model tuners. STMM and Starfish compute their
// recommendation entirely offline at proposer construction and spend at
// most one (Starfish: plus one repaired) verification run, expressed
// through tune.RecommendProposer. Ernest proposes its whole training design
// as one batch — the engine runs the scale-out samples in parallel — then
// fits the NNLS model and proposes the predicted-best executor count.

// NewProposer implements tune.BatchTuner.
func (t *STMM) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	return tune.NewRecommendProposer(t.recommend(target), nil), nil
}

// Check implements tune.Checker: the what-if model is of MapReduce.
func (t *Starfish) Check(target tune.Target, _ tune.Budget) error {
	if _, ok := target.(*mapreduce.Hadoop); !ok {
		return fmt.Errorf("costmodel/starfish: target %q is not a Hadoop deployment", target.Name())
	}
	return nil
}

// NewProposer implements tune.BatchTuner.
func (t *Starfish) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	if err := t.Check(target, b); err != nil {
		return nil, err
	}
	h := target.(*mapreduce.Hadoop)
	job, cl := h.Job(), h.Cluster()
	space := target.Space()
	rng := xrand.New(t.Seed + 17)
	best := opt.RecursiveRandomSearch(func(x []float64) float64 {
		return Predict(job, cl, space.FromVector(x))
	}, space.Dim(), starfishSearchBudget, rng)
	rec := space.FromVector(best.X)
	// The model can recommend an infeasible point: repair by halving memory
	// demands and retry once.
	repair := func(failed tune.Config) tune.Config {
		return failed.WithNative(mapreduce.IOSortMB, failed.Float(mapreduce.IOSortMB)/2).
			WithNative(mapreduce.MapSlots, float64(failed.Int(mapreduce.MapSlots))/2)
	}
	return tune.NewRecommendProposer(rec, repair), nil
}

// ernestProposer trains the scale-out model from one batched design.
type ernestProposer struct {
	base    tune.Config
	maxExec float64

	pending []tune.Config
	// trainCounts holds the executor count of each outstanding training
	// proposal, in proposal order — the model trains on the exact counts
	// proposed, not on values read back from the (quantized) config.
	trainCounts []float64
	xs          [][]float64
	ys          []float64
	counts      []float64
	fitted      bool
}

// trainPoints is how many scale-out samples a b-trial session trains on:
// ernestTrainPoints, less when the budget (which also has to cover the
// verification run) does not afford it.
func trainPoints(b tune.Budget) int { return min(ernestTrainPoints, b.Trials-1) }

// Check implements tune.Checker: the model is of Spark's scale-out, and the
// NNLS fit needs three training runs.
func (t *Ernest) Check(target tune.Target, b tune.Budget) error {
	if _, ok := target.(*spark.Spark); !ok {
		return fmt.Errorf("costmodel/ernest: target %q is not a Spark deployment", target.Name())
	}
	if trainPoints(b) < 3 {
		return fmt.Errorf("costmodel/ernest: budget %d too small (need ≥4 trials)", b.Trials)
	}
	return nil
}

// NewProposer implements tune.BatchTuner.
func (t *Ernest) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	if err := t.Check(target, b); err != nil {
		return nil, err
	}
	space := target.Space()
	pp, _ := space.Param(spark.NumExecutors)
	maxExec := pp.Max
	points := trainPoints(b)
	p := &ernestProposer{base: space.Default(), maxExec: maxExec}
	// Sample small scales geometrically up to maxExec/2 (Ernest trains on
	// cheap small configurations).
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		m := math.Round(1 + (maxExec/2-1)*math.Pow(frac, 1.5))
		if m < 1 {
			m = 1
		}
		p.pending = append(p.pending, p.base.WithNative(spark.NumExecutors, m))
		p.trainCounts = append(p.trainCounts, m)
	}
	return p, nil
}

func (p *ernestProposer) Propose(n int) []tune.Config { return tune.ProposeFixed(&p.pending, n) }

func (p *ernestProposer) Observe(t tune.Trial) {
	if len(p.trainCounts) == 0 {
		return // the verification run of the recommendation
	}
	m := p.trainCounts[0]
	p.trainCounts = p.trainCounts[1:]
	if !t.Result.Failed {
		p.xs = append(p.xs, ernestFeatures(m))
		p.ys = append(p.ys, t.Result.Time)
		p.counts = append(p.counts, m)
	}
	if len(p.trainCounts) == 0 && !p.fitted && len(p.xs) >= 3 {
		p.fitted = true
		x := linalg.FromRows(p.xs)
		theta := linalg.SolveNNLS(x, p.ys, 500)
		// Predict across all feasible counts and pick the minimizer.
		bestM, bestPred := p.counts[0], math.Inf(1)
		for m := 1.0; m <= p.maxExec; m++ {
			pred := linalg.Dot(theta, ernestFeatures(m))
			if pred < bestPred {
				bestPred, bestM = pred, m
			}
		}
		p.pending = append(p.pending, p.base.WithNative(spark.NumExecutors, bestM))
	}
}

// Interface conformance checks.
var (
	_ tune.BatchTuner = (*STMM)(nil)
	_ tune.BatchTuner = (*Starfish)(nil)
	_ tune.BatchTuner = (*Ernest)(nil)
)
