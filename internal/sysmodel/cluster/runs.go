package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/mathx/xrand"
	"repro/internal/tune"
)

// Runs is the run path every simulator shares: a run is a pure function of
// (construction seed, run index, fidelity, configuration). Run i draws its
// noise from the stream rand.New(rand.NewSource(seed + i·mult)) would give,
// mult being the simulator's own multiplier. Each run thus draws a fresh
// stream, so repeated runs of one configuration vary like real benchmark
// runs, and runs at reserved indices reproduce exactly what the same
// sequence of plain Run calls would have produced, on any worker or
// evaluator process. A simulator embeds *Runs built over its one eval
// function, and Runs supplies every run entry point of
// tune.FidelityTarget, plus RunEpochs for tune.AdaptiveTarget.
//
// The stream comes from xrand, not from rand.NewSource, which fills a
// 607-word register at seeding. That fill is a closed form — word i is
// three values of x ← 48271·x mod 2³¹−1, the k-th being seed·48271ᵏ, XORed
// with a constant — so xrand reseeds in constant time and computes each
// word from a table of powers at the draw that first reads it: the first
// 334 draws read every word once, in a fixed order. The registers come from
// a process-wide pool: a run takes one, reseeds it and puts it back once
// eval or the epoch fold is done, so eval must not keep its rng. A dbms run
// draws 2 to 5 values; seeding plus 3 draws costs 0.11 µs pooled against
// 17.5 µs over rand.NewSource (BenchmarkNoise; DESIGN §5 has the table).
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

// noiseStreams pools the runs' noise registers (*rand.Rand over an xrand
// source); a run reseeds the one it takes.
var noiseStreams = sync.Pool{New: func() any { return xrand.New(0) }}

// noise returns run index i's noise stream, taken from the pool; the caller
// puts it back when the run is done.
func (r *Runs) noise(i int64) *rand.Rand {
	rng := noiseStreams.Get().(*rand.Rand)
	rng.Seed(r.seed + i*r.mult)
	return rng
}

// ReserveRuns implements tune.Target.
func (r *Runs) ReserveRuns(n int64) int64 { return r.n.Add(n) - n + 1 }

// Run implements tune.Target.
func (r *Runs) Run(cfg tune.Config) tune.Result { return r.RunIndexed(r.ReserveRuns(1), cfg) }

// RunIndexed implements tune.Target.
func (r *Runs) RunIndexed(i int64, cfg tune.Config) tune.Result {
	rng := r.noise(i)
	res := r.eval(rng, 1, cfg)
	noiseStreams.Put(rng)
	return res
}

// RunFidelity implements tune.FidelityTarget. The simulators are pure and
// fast, so ctx is not consulted.
func (r *Runs) RunFidelity(ctx context.Context, f float64, cfg tune.Config) tune.Result {
	return r.RunIndexedFidelity(ctx, r.ReserveRuns(1), f, cfg)
}

// RunIndexedFidelity implements tune.FidelityTarget.
func (r *Runs) RunIndexedFidelity(_ context.Context, i int64, f float64, cfg tune.Config) tune.Result {
	rng := r.noise(i)
	res := r.eval(rng, tune.ClampFidelity(f), cfg)
	noiseStreams.Put(rng)
	return res
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
	noiseStreams.Put(rng)
	return total
}
