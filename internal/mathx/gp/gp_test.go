package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx/linalg"
)

func trainGrid(f func(x []float64) float64, n int, rng *rand.Rand) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	return xs, ys
}

func bowl(x []float64) float64 {
	return 5 + 20*((x[0]-0.6)*(x[0]-0.6)+(x[1]-0.4)*(x[1]-0.4))
}

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := trainGrid(bowl, 25, rng)
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		g := New(kernel)
		g.Hyper.NoiseStd = 0.01
		if err := g.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		for i := range xs[:5] {
			mu, _ := g.Predict(xs[i])
			if math.Abs(mu-ys[i]) > 0.5 {
				t.Errorf("kernel %v: predict(train[%d]) = %v, want %v", kernel, i, mu, ys[i])
			}
		}
	}
}

func TestGPGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ys := trainGrid(bowl, 40, rng)
	g := New(Matern52)
	if err := g.Fit(xs, ys, true); err != nil {
		t.Fatal(err)
	}
	var errSum float64
	for i := 0; i < 30; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		mu, _ := g.Predict(x)
		errSum += math.Abs(mu - bowl(x))
	}
	if mean := errSum / 30; mean > 1.0 {
		t.Errorf("mean abs error %v too high", mean)
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	g := New(SquaredExponential)
	xs := [][]float64{{0.5, 0.5}}
	if err := g.Fit(xs, []float64{1}, false); err != nil {
		t.Fatal(err)
	}
	_, sNear := g.Predict([]float64{0.5, 0.5})
	_, sFar := g.Predict([]float64{0.0, 1.0})
	if sFar <= sNear {
		t.Errorf("sigma far (%v) should exceed sigma near (%v)", sFar, sNear)
	}
}

func TestExpectedImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ys := trainGrid(bowl, 30, rng)
	g := New(Matern52)
	if err := g.Fit(xs, ys, true); err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, y := range ys {
		if y < best {
			best = y
		}
	}
	// EI near the optimum region should dominate EI at a known-bad corner.
	eiGood := g.ExpectedImprovement([]float64{0.6, 0.4}, best)
	eiBad := g.ExpectedImprovement([]float64{0.0, 1.0}, best)
	if eiGood < 0 || eiBad < 0 {
		t.Error("EI must be non-negative")
	}
	if eiGood <= eiBad {
		t.Errorf("EI(good)=%v should exceed EI(bad)=%v", eiGood, eiBad)
	}
}

// logMarginal returns the log marginal likelihood under the current
// hyperparameters; −Inf if factorization fails.
func (g *GP) logMarginal() float64 {
	if err := g.refit(); err != nil {
		return math.Inf(-1)
	}
	n := float64(len(g.ys))
	return -0.5*linalg.Dot(g.ys, g.alpha) - 0.5*g.chol.LogDet() - 0.5*n*math.Log(2*math.Pi)
}

func TestHyperoptImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs, ys := trainGrid(bowl, 30, rng)
	g := New(Matern52)
	g.Hyper = Hyper{SignalVar: 1, Lengthscale: 0.01, NoiseStd: 0.4} // deliberately bad
	if err := g.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	before := g.logMarginal()
	if err := g.Fit(xs, ys, true); err != nil {
		t.Fatal(err)
	}
	after := g.logMarginal()
	if after < before {
		t.Errorf("hyperopt made likelihood worse: %v → %v", before, after)
	}
}

func TestFitErrors(t *testing.T) {
	g := New(SquaredExponential)
	if err := g.Fit(nil, nil, false); err == nil {
		t.Error("empty training set should error")
	}
	if err := g.Fit([][]float64{{1}}, []float64{1, 2}, false); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestConstantTargets(t *testing.T) {
	g := New(SquaredExponential)
	xs := [][]float64{{0.1}, {0.5}, {0.9}}
	if err := g.Fit(xs, []float64{3, 3, 3}, false); err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.3})
	if math.Abs(mu-3) > 0.5 {
		t.Errorf("constant fit predicts %v", mu)
	}
	if g.TrainingSize() != 3 {
		t.Error("TrainingSize wrong")
	}
}

var sqrt5 = math.Sqrt(5)

// randomRows is n points of [0,1]^d, flat and as rows.
func randomRows(n, d int, rng *rand.Rand) (flat []float64, rows [][]float64) {
	flat = make([]float64, n*d)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		rows = append(rows, flat[i*d:(i+1)*d])
	}
	return flat, rows
}

// The kernel rows are the per-pair formula, bit for bit, at every length
// around the ExpInto chunk and across both kernels; a distance read from the
// column-major copy is the one-row loop's.
func TestKernelRowMatchesPairFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 130, 161} {
		for _, d := range []int{1, 2, 7} {
			flat, _ := randomRows(n, d, rng)
			p, _ := randomRows(1, d, rng)
			var cols columns
			cols.reset(n, d)
			for i := 0; i < n; i++ {
				cols.set(i, flat[i*d:(i+1)*d])
			}
			dist := make([]float64, n)
			cols.sqDistsInto(dist, 0, p)
			for i := 0; i < n; i++ {
				var s float64
				for k, v := range flat[i*d : (i+1)*d] {
					diff := v - p[k]
					s += diff * diff
				}
				if math.Float64bits(dist[i]) != math.Float64bits(s) {
					t.Fatalf("n=%d d=%d: distance %d is %v, one-row loop %v", n, d, i, dist[i], s)
				}
			}
			for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
				sv, l := 0.5+rng.Float64(), 0.05+rng.Float64()
				row := append([]float64(nil), dist...)
				kernelRow(kernel, row, sv, l)
				for i, d2 := range dist {
					var want float64
					if kernel == Matern52 {
						r := math.Sqrt(d2) / l
						s5 := sqrt5 * r
						want = sv * ((1 + s5 + 5*r*r/3) * math.Exp(-s5))
					} else {
						want = sv * math.Exp(-d2/(2*l*l))
					}
					if math.Float64bits(row[i]) != math.Float64bits(want) {
						t.Fatalf("kernel %v n=%d: k[%d] = %v, per-pair formula %v", kernel, n, i, row[i], want)
					}
				}
			}
		}
	}
}

// BenchmarkKernelRow is one kernel row, squared distances included, at the
// sizes the GP tuners score candidates at: the exact tier's vector at
// n = 160 (its last size) and the sparse tier's row at m = 64.
func BenchmarkKernelRow(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const d = 10
	_, xs := randomRows(300, d, rng)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = bowl(x)
	}
	p, _ := randomRows(1, d, rng)
	b.Run("exact/n=160", func(b *testing.B) {
		g := New(Matern52)
		if err := g.Fit(xs[:160], ys[:160], false); err != nil {
			b.Fatal(err)
		}
		ks := make([]float64, 160)
		for b.Loop() {
			g.kernelVecInto(ks, p)
		}
	})
	b.Run("sparse/m=64", func(b *testing.B) {
		s := NewSparse(Matern52)
		if err := s.Fit(xs, ys, false); err != nil {
			b.Fatal(err)
		}
		ks := make([]float64, DefaultInducing)
		for b.Loop() {
			s.kernelRowInto(ks, p)
		}
	})
}
