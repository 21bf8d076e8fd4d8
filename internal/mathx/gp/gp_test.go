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
