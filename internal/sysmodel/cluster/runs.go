package cluster

import (
	"context"
	"math/rand"
	"sync/atomic"

	"repro/internal/tune"
)

// Runs is the run path every simulator shares: a run is a pure function of
// (construction seed, run index, fidelity, configuration). Run i draws its
// noise from rand.NewSource(seed + i·mult), mult being the simulator's own
// multiplier. Each run thus draws a fresh stream, so repeated runs of one
// configuration vary like real benchmark runs, and runs at reserved indices
// reproduce exactly what the same sequence of plain Run calls would have
// produced, on any worker or evaluator process. A simulator embeds *Runs
// built over its one eval function, and Runs supplies every run entry point
// of tune.ConcurrentFidelityTarget, plus RunEpochs for tune.AdaptiveTarget.
type Runs struct {
	seed, mult int64
	eval       func(rng *rand.Rand, f float64, cfg tune.Config) tune.Result
	n          atomic.Int64
}

// NewRuns returns the run path over eval, which executes fraction f of the
// workload under cfg drawing its noise from rng. f arrives clamped by
// tune.ClampFidelity and is exactly 1 on the plain paths, so a run at
// fidelity 1 is the plain run at the same index.
func NewRuns(seed, mult int64, eval func(rng *rand.Rand, f float64, cfg tune.Config) tune.Result) *Runs {
	return &Runs{seed: seed, mult: mult, eval: eval}
}

// noise returns run index i's noise stream.
func (r *Runs) noise(i int64) *rand.Rand { return rand.New(rand.NewSource(r.seed + i*r.mult)) }

// ReserveRuns implements tune.ConcurrentTarget.
func (r *Runs) ReserveRuns(n int64) int64 { return r.n.Add(n) - n + 1 }

// Run implements tune.Target.
func (r *Runs) Run(cfg tune.Config) tune.Result { return r.RunIndexed(r.ReserveRuns(1), cfg) }

// RunIndexed implements tune.ConcurrentTarget.
func (r *Runs) RunIndexed(i int64, cfg tune.Config) tune.Result { return r.eval(r.noise(i), 1, cfg) }

// RunFidelity implements tune.FidelityTarget. The simulators are pure and
// fast, so ctx is not consulted.
func (r *Runs) RunFidelity(ctx context.Context, f float64, cfg tune.Config) tune.Result {
	return r.RunIndexedFidelity(ctx, r.ReserveRuns(1), f, cfg)
}

// RunIndexedFidelity implements tune.ConcurrentFidelityTarget.
func (r *Runs) RunIndexedFidelity(_ context.Context, i int64, f float64, cfg tune.Config) tune.Result {
	return r.eval(r.noise(i), tune.ClampFidelity(f), cfg)
}

// RunEpochs is one adaptive run of epochs epochs on the next run index's
// noise stream. Before epoch e, ctrl picks a configuration from the one in
// force and the previous epoch's metrics; epoch turns the one in force and
// ctrl's pick into the configuration that takes force and that epoch's
// result. The total sums time and cost, keeps the last failure, and averages
// every metric over the epochs.
func (r *Runs) RunEpochs(start tune.Config, ctrl tune.EpochController, epochs int,
	epoch func(rng *rand.Rand, e int, cur, next tune.Config) (tune.Config, tune.Result)) tune.Result {
	rng := r.noise(r.ReserveRuns(1))
	cfg := start
	total := tune.Result{Metrics: map[string]float64{}}
	var prev map[string]float64
	for e := 0; e < epochs; e++ {
		var res tune.Result
		cfg, res = epoch(rng, e, cfg, ctrl.Epoch(e, cfg, prev))
		total.Time += res.Time
		total.Cost += res.Cost
		if res.Failed {
			total.Failed = true
			total.FailReason = res.FailReason
		}
		for k, v := range res.Metrics {
			total.Metrics[k] += v / float64(epochs)
		}
		prev = res.Metrics
	}
	return total
}
