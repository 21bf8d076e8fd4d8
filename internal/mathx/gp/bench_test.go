package gp_test

// Kernel micro-benchmarks on (config, runtime) pairs drawn from the DBMS
// simulator — the surface the model-based tuners actually fit. An external
// test package: the simulator imports gp by way of internal/tune.

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/mathx/gp"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/workload"
)

func benchTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

// surrogateTrainingSet samples n (config, runtime) pairs from the DBMS
// simulator for the surrogate-scaling benchmarks.
func surrogateTrainingSet(n int, seed int64) (xs [][]float64, ys []float64) {
	target := benchTarget(seed)
	space := target.Space()
	rnd := rand.New(rand.NewSource(seed))
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		cfg := space.Random(rnd)
		xs[i] = cfg.Vector()
		ys[i] = target.Run(cfg).Time
	}
	return xs, ys
}

// BenchmarkGPFit measures Gaussian-process fitting cost versus training size
// — the per-iteration overhead of model-guided tuning. Small sizes run the
// full per-round hyperparameter search the tuners pay below the exact-GP
// wall; n ≥ 200 fits with fixed hyperparameters (the same rule the tuners
// apply past their reoptimization horizon), isolating the O(n³)
// factorization growth the sparse/RFF tiers exist to avoid.
func BenchmarkGPFit(b *testing.B) {
	for _, n := range []int{20, 40, 60, 200, 500, 2000} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			xs, ys := surrogateTrainingSet(n, 5)
			optimize := n <= 60
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := gp.New(gp.Matern52)
				if err := g.Fit(xs, ys, optimize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSurrogateFit compares the three surrogate tiers on identical
// training sets with fixed hyperparameters (optimize=false everywhere):
// pure conditioning cost, exact O(n³) vs sparse O(nm²) vs RFF O(nD²).
func BenchmarkSurrogateFit(b *testing.B) {
	tiers := []struct {
		name string
		make func() gp.Surrogate
	}{
		{"exact", func() gp.Surrogate { return gp.New(gp.Matern52) }},
		{"sparse", func() gp.Surrogate {
			s := gp.NewSparse(gp.Matern52)
			s.MaxInducing = 64
			return s
		}},
		{"rff", func() gp.Surrogate { return gp.NewRFF(gp.Matern52, 128, 1) }},
	}
	for _, tier := range tiers {
		for _, n := range []int{200, 500, 2000} {
			b.Run("tier="+tier.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				xs, ys := surrogateTrainingSet(n, 7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := tier.make()
					if err := m.Fit(xs, ys, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGPAppend measures incremental conditioning on one new observation
// — the exact tier's bordered-Cholesky append — against the
// O(n³) hyper-searched refit it replaces (BenchmarkGPFit at the same n).
func BenchmarkGPAppend(b *testing.B) {
	for _, n := range []int{20, 40, 60} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			target := benchTarget(6)
			space := target.Space()
			var xs [][]float64
			var ys []float64
			rnd := space.Default()
			for i := 0; i <= n; i++ {
				rng, x := rand.New(rand.NewSource(int64(i))), rnd.Vector()
				for j := range x {
					x[j] += (rng.Float64()*2 - 1) * 0.3
				}
				rnd = space.FromVector(x)
				xs = append(xs, rnd.Vector())
				ys = append(ys, target.Run(rnd).Time)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := gp.New(gp.Matern52)
				if err := g.Fit(xs[:n], ys[:n], true); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := g.Append(xs[n], ys[n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
