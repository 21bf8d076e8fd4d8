package gp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mathx/linalg"
	"repro/internal/mathx/stat"
)

// naiveGP mirrors the pre-optimization implementation: per-pair kernel
// evaluations, a fresh kernel matrix and factorization for every
// hyperparameter candidate, fresh allocations everywhere. It shares the
// optimized path's scalar formulas (base kernel times signal variance,
// hoisted constants) so the two must agree bit for bit; what it does NOT
// share is any of the caching — the distance matrix, the factored hyper
// grid, the workspace reuse. It is the reference that pins those
// optimizations down.
type naiveGP struct {
	kernel KernelKind
	hyper  Hyper

	x     [][]float64
	yMean float64
	yStd  float64
	ys    []float64
	chol  *linalg.Cholesky
	alpha []float64
}

func (g *naiveGP) kernelAt(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	l := g.hyper.Lengthscale
	switch g.kernel {
	case Matern52:
		r := math.Sqrt(d2) / l
		s5 := math.Sqrt(5) * r
		return g.hyper.SignalVar * ((1 + s5 + 5*r*r/3) * math.Exp(-s5))
	default:
		return g.hyper.SignalVar * math.Exp(-d2/(2*l*l))
	}
}

func (g *naiveGP) refit() error {
	n := len(g.x)
	k := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.kernelAt(g.x[i], g.x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	noise := g.hyper.NoiseStd * g.hyper.NoiseStd
	k.AddDiag(noise + 1e-8)
	ch, _, err := linalg.CholeskyWithJitter(k, 1e-8, 8)
	if err != nil {
		return err
	}
	g.chol = ch
	g.alpha = make([]float64, len(g.ys))
	ch.SolveVecInto(g.alpha, g.ys)
	return nil
}

// logMarginal scores a hyperparameter candidate. The quadratic form goes
// through the same forward-substitution formula (yᵀK⁻¹y = ‖L⁻¹y‖²) the
// optimized grid uses — mathematically equal to Dot(ys, alpha) but shared
// bit-for-bit, so candidate selection is comparable even on near-ties.
func (g *naiveGP) logMarginal() float64 {
	if err := g.refit(); err != nil {
		return math.Inf(-1)
	}
	z := make([]float64, len(g.ys))
	g.chol.SolveLowerInto(z, g.ys)
	n := float64(len(g.ys))
	return -0.5*linalg.Dot(z, z) - 0.5*g.chol.LogDet() - 0.5*n*math.Log(2*math.Pi)
}

func (g *naiveGP) fit(x [][]float64, y []float64, optimize bool) error {
	g.x = x
	g.yMean = stat.Mean(y)
	g.yStd = stat.Std(y)
	if g.yStd < 1e-12 {
		g.yStd = 1
	}
	g.ys = make([]float64, len(y))
	for i, v := range y {
		g.ys[i] = (v - g.yMean) / g.yStd
	}
	if optimize {
		lengths := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2}
		noises := []float64{0.01, 0.05, 0.1, 0.2, 0.4}
		signals := []float64{0.5, 1.0, 2.0}
		best := math.Inf(-1)
		bestH := g.hyper
		for _, l := range lengths {
			for _, nz := range noises {
				for _, sv := range signals {
					g.hyper = Hyper{SignalVar: sv, Lengthscale: l, NoiseStd: nz}
					if lm := g.logMarginal(); lm > best {
						best, bestH = lm, g.hyper
					}
				}
			}
		}
		g.hyper = bestH
	}
	return g.refit()
}

func (g *naiveGP) predict(p []float64) (mu, sigma float64) {
	n := len(g.x)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = g.kernelAt(g.x[i], p)
	}
	muStd := linalg.Dot(ks, g.alpha)
	// The variance goes through the forward-substitution identity
	// k*ᵀK⁻¹k* = ‖L⁻¹k*‖² that Predict uses — mathematically equal to
	// Dot(ks, K⁻¹ks), which TestForwardVarianceMatchesFullSolve bounds, but
	// shared bit for bit.
	v := make([]float64, n)
	g.chol.SolveLowerInto(v, ks)
	varStd := g.kernelAt(p, p) - linalg.Dot(v, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*g.yStd + g.yMean, math.Sqrt(varStd) * g.yStd
}

func goldenData(n, d int, seed int64) (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs = append(xs, x)
		y := 3.0
		for j := range x {
			y += 10 * (x[j] - 0.4) * (x[j] - 0.4)
		}
		ys = append(ys, y+0.1*rng.NormFloat64())
	}
	return xs, ys
}

// TestGoldenFitPredictEI pins the optimized hot path — cached distances,
// factored hyper grid, workspace solves — to the naive reference bit for
// bit: same selected hyperparameters, same posterior, same acquisition
// values, on both kernels.
func TestGoldenFitPredictEI(t *testing.T) {
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		xs, ys := goldenData(30, 3, 7)
		fast := New(kernel)
		if err := fast.Fit(xs, ys, true); err != nil {
			t.Fatal(err)
		}
		ref := &naiveGP{kernel: kernel, hyper: Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.1}}
		if err := ref.fit(xs, ys, true); err != nil {
			t.Fatal(err)
		}
		if fast.Hyper != ref.hyper {
			t.Fatalf("kernel %v: hyper selection diverged: %+v vs %+v", kernel, fast.Hyper, ref.hyper)
		}
		rng := rand.New(rand.NewSource(8))
		incumbent := ys[0]
		for _, y := range ys {
			if y < incumbent {
				incumbent = y
			}
		}
		for i := 0; i < 25; i++ {
			p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			mu, sigma := fast.Predict(p)
			rmu, rsigma := ref.predict(p)
			if mu != rmu || sigma != rsigma {
				t.Fatalf("kernel %v: Predict diverged at %v: (%v,%v) vs (%v,%v)",
					kernel, p, mu, sigma, rmu, rsigma)
			}
			ei := fast.ExpectedImprovement(p, incumbent)
			rz := (incumbent - rmu) / rsigma
			rei := 0.0
			if rsigma >= 1e-12 {
				rei = (incumbent-rmu)*stat.NormCDF(rz) + rsigma*stat.NormPDF(rz)
			}
			if ei != rei {
				t.Fatalf("kernel %v: EI diverged at %v: %v vs %v", kernel, p, ei, rei)
			}
		}
	}
}

// TestAppendMatchesFullFit: conditioning on one new observation via the
// bordered Cholesky must agree bit for bit with refitting the whole
// training set from scratch under the same hyperparameters.
func TestAppendMatchesFullFit(t *testing.T) {
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		xs, ys := goldenData(24, 3, 9)
		inc := New(kernel)
		if err := inc.Fit(xs[:20], ys[:20], true); err != nil {
			t.Fatal(err)
		}
		h := inc.Hyper
		for i := 20; i < 24; i++ {
			if err := inc.Append(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		full := New(kernel)
		full.Hyper = h
		if err := full.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		if inc.TrainingSize() != 24 {
			t.Fatalf("TrainingSize = %d after appends", inc.TrainingSize())
		}
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < 25; i++ {
			p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			am, as := inc.Predict(p)
			fm, fs := full.Predict(p)
			if am != fm || as != fs {
				t.Fatalf("kernel %v: Append diverged from full fit at %v: (%v,%v) vs (%v,%v)",
					kernel, p, am, as, fm, fs)
			}
		}
	}
}

func TestAppendErrors(t *testing.T) {
	g := New(Matern52)
	if err := g.Append([]float64{0.5}, 1); err == nil {
		t.Error("Append before Fit should error")
	}
	if err := g.Fit([][]float64{{0.2, 0.3}, {0.7, 0.9}}, []float64{1, 2}, false); err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]float64{0.5}, 1); err == nil {
		t.Error("dimension mismatch should error")
	}
}

// TestFitCopiesInputs: the model must not alias the caller's slices — later
// mutation of the training rows cannot corrupt predictions.
func TestFitCopiesInputs(t *testing.T) {
	xs, ys := goldenData(15, 2, 11)
	g := New(Matern52)
	if err := g.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	p := []float64{0.42, 0.58}
	mu0, s0 := g.Predict(p)
	for _, row := range xs {
		for j := range row {
			row[j] = -99
		}
	}
	ys[0] = 1e9
	mu1, s1 := g.Predict(p)
	if mu0 != mu1 || s0 != s1 {
		t.Fatalf("caller mutation changed predictions: (%v,%v) vs (%v,%v)", mu0, s0, mu1, s1)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	g := New(SquaredExponential)
	mu, sigma := g.Predict([]float64{0.5})
	if mu != 0 || !math.IsInf(sigma, 1) {
		t.Fatalf("unfitted Predict = (%v, %v), want (0, +Inf)", mu, sigma)
	}
	if g.TrainingSize() != 0 {
		t.Errorf("unfitted TrainingSize = %d", g.TrainingSize())
	}
}

// TestFailedFitInvalidatesModel: when factorization fails, the GP must not
// keep a factor sized for the previous training set — Predict reports total
// uncertainty instead of panicking on mismatched lengths.
func TestFailedFitInvalidatesModel(t *testing.T) {
	g := New(SquaredExponential)
	if err := g.Fit([][]float64{{0.1}, {0.9}}, []float64{1, 2}, false); err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{{math.NaN()}, {0.2}, {0.9}}
	if err := g.Fit(bad, []float64{1, 2, 3}, false); err == nil {
		t.Fatal("NaN inputs should fail factorization")
	}
	mu, sigma := g.Predict([]float64{0.5})
	if mu != 0 || !math.IsInf(sigma, 1) {
		t.Fatalf("Predict after failed Fit = (%v, %v), want (0, +Inf)", mu, sigma)
	}
}

func TestRaggedInputsRejected(t *testing.T) {
	g := New(SquaredExponential)
	if err := g.Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}, false); err == nil {
		t.Error("ragged rows should error")
	}
}

// TestBatchedScoringMatchesPointwise: ScoreCandidates must agree with its
// per-point counterpart exactly.
func TestBatchedScoringMatchesPointwise(t *testing.T) {
	xs, ys := goldenData(20, 2, 13)
	g := New(Matern52)
	if err := g.Fit(xs, ys, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	var points [][]float64
	for i := 0; i < 40; i++ {
		points = append(points, []float64{rng.Float64(), rng.Float64()})
	}
	scores := g.ScoreCandidates(points, ys[0], nil)
	for i, p := range points {
		if scores[i] != g.ExpectedImprovement(p, ys[0]) {
			t.Fatalf("ScoreCandidates[%d] diverged", i)
		}
	}
	// dst reuse path.
	dst := make([]float64, 0, 64)
	again := g.ScoreCandidates(points, ys[0], dst)
	for i := range scores {
		if again[i] != scores[i] {
			t.Fatalf("dst-reuse ScoreCandidates[%d] diverged", i)
		}
	}
}

// TestBatchedScoringConcurrentInstances drives batched scoring on many GP
// instances in parallel. Each instance owns its workspaces, so distinct
// models must be fully independent (run under -race in CI).
func TestBatchedScoringConcurrentInstances(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			xs, ys := goldenData(18, 2, seed)
			g := New(Matern52)
			if err := g.Fit(xs[:16], ys[:16], true); err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(seed + 100))
			var points [][]float64
			for i := 0; i < 30; i++ {
				points = append(points, []float64{rng.Float64(), rng.Float64()})
			}
			scores := g.ScoreCandidates(points, ys[0], nil)
			for i := 16; i < 18; i++ {
				if err := g.Append(xs[i], ys[i]); err != nil {
					t.Error(err)
					return
				}
			}
			_ = g.ScoreCandidates(points, ys[0], scores)
		}(int64(20 + w))
	}
	wg.Wait()
}
