// Package gp implements Gaussian-process regression with squared-exponential
// and Matérn 5/2 kernels, log-marginal-likelihood hyperparameter selection,
// and the Expected Improvement / Upper Confidence Bound acquisition
// functions. It is the statistical engine behind the iTuned and OtterTune
// reproductions.
//
// The hot path is organized around two caches that exploit the kernel
// algebra. First, both kernels depend on the inputs only through pairwise
// squared distances, so Fit computes the n×n distance matrix once and every
// kernel matrix derives from it. Second, the hyperparameter grid factors:
// for a base kernel matrix B(ℓ) built at unit signal variance,
//
//	K(σ², ℓ, σ_n) = σ²·B(ℓ) + (σ_n² + ε)·I
//
// so the 7×5×3 grid needs only 7 transcendental-heavy kernel builds — one
// per lengthscale — with each of the 105 candidates costing a scale, a
// diagonal add, and a Cholesky factorization into reused workspaces.
//
// A fitted GP can also absorb one new observation with unchanged
// hyperparameters in O(n²) via Append, which extends the Cholesky factor by
// a bordered row (bit-identical to refactorizing from scratch).
//
// A GP instance is not safe for concurrent use: Predict and the acquisition
// functions share per-instance workspaces to stay allocation-free. Distinct
// instances are independent.
package gp

import (
	"errors"
	"math"

	"repro/internal/mathx/linalg"
	"repro/internal/mathx/stat"
)

// KernelKind selects the covariance function.
type KernelKind int

const (
	// SquaredExponential is the Gaussian (RBF) kernel with a shared
	// lengthscale: k(a,b) = σ²·exp(−‖a−b‖²/(2ℓ²)).
	SquaredExponential KernelKind = iota
	// Matern52 is the Matérn ν=5/2 kernel, a rougher prior that fits
	// performance surfaces with cliffs better than the RBF.
	Matern52
)

// sqrt5 hoists the Matérn constant out of the per-pair kernel math.
var sqrt5 = math.Sqrt(5)

// blockedFitMinN is the training-set size at which refit switches from the
// serial Cholesky to the blocked parallel factorization. It sits far above
// every golden-pinned fit (n ≤ ~80), so recorded exact-GP event streams keep
// their exact bits.
const blockedFitMinN = 256

// Hyper holds GP hyperparameters: signal variance, lengthscale, and
// observation noise standard deviation — all in standardized-y units.
type Hyper struct {
	SignalVar   float64
	Lengthscale float64
	NoiseStd    float64
}

// GP is a Gaussian-process regressor over points in [0,1]^d with observations
// standardized internally. Fit must be called before Predict; an unfitted GP
// predicts (0, +Inf) — total uncertainty — rather than crashing.
type GP struct {
	Kernel KernelKind
	Hyper  Hyper

	x      *linalg.Matrix // n×d training inputs (deep copy of the caller's rows)
	d2     *linalg.Matrix // n×n pairwise squared distances, built once per Fit
	yRaw   []float64
	yMean  float64
	yStd   float64
	ys     []float64 // standardized targets, computed once per Fit/Append
	chol   *linalg.Cholesky
	alpha  []float64
	jitter float64 // extra diagonal jitter the factorization needed

	// Reusable workspaces for Predict/EI (kernel vector and solve
	// scratch). These make single-point prediction allocation-free but make
	// a GP instance unsafe for concurrent use.
	wsK []float64
	wsV []float64
}

// New returns a GP with the given kernel and reasonable default
// hyperparameters (tuned during Fit when optimize is requested).
func New(kernel KernelKind) *GP {
	return &GP{Kernel: kernel, Hyper: Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.1}}
}

// Fit conditions the GP on (x, y). If optimize is true, hyperparameters are
// selected by grid search over log-marginal likelihood; otherwise the current
// hyperparameters are used. The rows of x are deep-copied, so the caller may
// mutate them afterwards without corrupting the model. It returns an error
// when the kernel matrix cannot be factorized even with jitter.
func (g *GP) Fit(x [][]float64, y []float64, optimize bool) error {
	if _, err := checkTrainingSet(x, y); err != nil {
		g.chol = nil // a refused Fit must not leave the previous model answering
		return err
	}
	n := len(x)
	g.x = linalg.FromRows(x)
	g.yRaw = append(g.yRaw[:0], y...)
	g.yMean = stat.Mean(y)
	g.yStd = stat.Std(y)
	if g.yStd < 1e-12 {
		g.yStd = 1
	}
	g.ys = resize(g.ys, n)
	for i, v := range g.yRaw {
		g.ys[i] = (v - g.yMean) / g.yStd
	}
	g.buildD2()
	if optimize {
		g.optimizeHypers()
	}
	return g.refit()
}

// buildD2 fills the pairwise squared-distance cache from the training inputs.
func (g *GP) buildD2() {
	n, d := g.x.R, g.x.C
	if g.d2 == nil || g.d2.R != n {
		g.d2 = linalg.New(n, n)
	}
	xd := g.x.Data
	dd := g.d2.Data
	for i := 0; i < n; i++ {
		xi := xd[i*d : (i+1)*d]
		dd[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			xj := xd[j*d : (j+1)*d]
			var s float64
			for k, v := range xi {
				diff := v - xj[k]
				s += diff * diff
			}
			dd[i*n+j] = s
			dd[j*n+i] = s
		}
	}
}

// baseKernelInto writes the unit-signal-variance kernel matrix for
// lengthscale l into b, reading only the distance cache. Per-pair constants
// (√5, 2ℓ²) are hoisted out of the loops.
func (g *GP) baseKernelInto(b *linalg.Matrix, l float64) {
	n := g.d2.R
	dd := g.d2.Data
	bd := b.Data
	switch g.Kernel {
	case Matern52:
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				r := math.Sqrt(dd[i*n+j]) / l
				s5 := sqrt5 * r
				v := (1 + s5 + 5*r*r/3) * math.Exp(-s5)
				bd[i*n+j] = v
				bd[j*n+i] = v
			}
		}
	default:
		twoL2 := 2 * l * l
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := math.Exp(-dd[i*n+j] / twoL2)
				bd[i*n+j] = v
				bd[j*n+i] = v
			}
		}
	}
}

// factorInPlaceWithJitter factors k into l, adding exponentially growing
// jitter to k's diagonal until factorization succeeds (the workspace form of
// linalg.CholeskyWithJitter; k is scratch and may be mutated).
func factorInPlaceWithJitter(k, l *linalg.Matrix, jitter float64, maxTries int) (float64, bool) {
	added := 0.0
	for try := 0; try < maxTries; try++ {
		if linalg.CholeskyInto(k, l) == nil {
			return added, true
		}
		step := jitter * math.Pow(10, float64(try))
		k.AddDiag(step)
		added += step
	}
	return added, false
}

// refit factors the kernel matrix for the current hyperparameters and solves
// for alpha. The kernel matrix derives from the distance cache.
func (g *GP) refit() error {
	n := g.x.R
	k := linalg.New(n, n)
	g.baseKernelInto(k, g.Hyper.Lengthscale)
	sv := g.Hyper.SignalVar
	for i := range k.Data {
		k.Data[i] *= sv
	}
	noise := g.Hyper.NoiseStd * g.Hyper.NoiseStd
	k.AddDiag(noise + 1e-8)
	var (
		ch    *linalg.Cholesky
		added float64
		err   error
	)
	if n >= blockedFitMinN {
		// Large fits amortize goroutine fan-out: the blocked factorization is
		// bit-identical at every worker count, though not to the serial path —
		// which is why the threshold sits far above every golden-pinned fit.
		ch, added, err = linalg.ParallelCholeskyWithJitter(k, 1e-8, 8, 0)
	} else {
		ch, added, err = linalg.CholeskyWithJitter(k, 1e-8, 8)
	}
	if err != nil {
		// Invalidate rather than leave a factor sized for the previous
		// training set: Predict then reports total uncertainty instead of
		// panicking on mismatched lengths.
		g.chol = nil
		return err
	}
	g.chol = ch
	g.jitter = added
	g.alpha = resize(g.alpha, n)
	ch.SolveVecInto(g.alpha, g.ys)
	g.growWorkspaces(n)
	return nil
}

// Append conditions a fitted GP on one more observation without changing
// hyperparameters. The distance cache gains a row, the Cholesky factor is
// extended by a bordered row in O(n²) (bit-identical to refactorizing the
// extended matrix from scratch), targets are re-standardized, and alpha is
// re-solved. When the extension is not positive definite — or the previous
// factorization needed extra jitter — it falls back to a full refit.
func (g *GP) Append(x []float64, y float64) error {
	if g.chol == nil {
		return errors.New("gp: Append before Fit")
	}
	n, d := g.x.R, g.x.C
	if len(x) != d {
		return errors.New("gp: Append dimension mismatch")
	}
	if err := checkObservation(x, y); err != nil {
		return err
	}
	m := n + 1
	nx := linalg.New(m, d)
	copy(nx.Data, g.x.Data)
	copy(nx.Data[n*d:], x)
	nd2 := linalg.New(m, m)
	for i := 0; i < n; i++ {
		copy(nd2.Data[i*m:i*m+n], g.d2.Data[i*n:(i+1)*n])
	}
	xn := nx.Data[n*d : m*d]
	for i := 0; i < n; i++ {
		xi := nx.Data[i*d : (i+1)*d]
		var s float64
		for k, v := range xi {
			diff := v - xn[k]
			s += diff * diff
		}
		nd2.Data[i*m+n] = s
		nd2.Data[n*m+i] = s
	}
	nd2.Data[n*m+n] = 0
	g.x, g.d2 = nx, nd2

	g.yRaw = append(g.yRaw, y)
	g.yMean = stat.Mean(g.yRaw)
	g.yStd = stat.Std(g.yRaw)
	if g.yStd < 1e-12 {
		g.yStd = 1
	}
	g.ys = resize(g.ys, m)
	for i, v := range g.yRaw {
		g.ys[i] = (v - g.yMean) / g.yStd
	}

	if g.jitter != 0 {
		// The live factor carries stepwise jitter whose addition order a
		// bordered row cannot reproduce exactly; refactorize instead.
		return g.refit()
	}
	sv, l := g.Hyper.SignalVar, g.Hyper.Lengthscale
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		row[i] = sv * g.baseAt(nd2.Data[n*m+i], l)
	}
	noise := g.Hyper.NoiseStd * g.Hyper.NoiseStd
	diag := sv*g.baseAt(0, l) + (noise + 1e-8)
	ch, err := g.chol.Extend(row, diag)
	if err != nil {
		return g.refit()
	}
	g.chol = ch
	g.alpha = resize(g.alpha, m)
	ch.SolveVecInto(g.alpha, g.ys)
	g.growWorkspaces(m)
	return nil
}

// baseAt evaluates the unit-signal-variance kernel at squared distance d2,
// with the same arithmetic as baseKernelInto.
func (g *GP) baseAt(d2, l float64) float64 {
	switch g.Kernel {
	case Matern52:
		r := math.Sqrt(d2) / l
		s5 := sqrt5 * r
		return (1 + s5 + 5*r*r/3) * math.Exp(-s5)
	default:
		return math.Exp(-d2 / (2 * l * l))
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

// optimizeHypers grid-searches lengthscale × noise × signal variance over
// ranges suited to unit-cube inputs and standardized outputs. The grid is
// factored: one base kernel build per lengthscale, then each (noise, signal)
// candidate is a scale plus diagonal add into reused workspaces — 7 kernel
// builds for 105 candidates instead of 105.
func (g *GP) optimizeHypers() {
	lengths := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2}
	noises := []float64{0.01, 0.05, 0.1, 0.2, 0.4}
	signals := []float64{0.5, 1.0, 2.0}
	n := g.x.R
	b := linalg.New(n, n)
	k := linalg.New(n, n)
	ch := &linalg.Cholesky{L: linalg.New(n, n)}
	z := make([]float64, n)
	logConst := 0.5 * float64(n) * math.Log(2*math.Pi)
	best := math.Inf(-1)
	bestH := g.Hyper
	for _, l := range lengths {
		g.baseKernelInto(b, l)
		for _, nz := range noises {
			noise := nz * nz
			for _, sv := range signals {
				// Only the lower triangle feeds the factorization; scaling
				// the upper half of the candidate matrix would be wasted.
				for i := 0; i < n; i++ {
					brow := b.Data[i*n : i*n+i+1]
					krow := k.Data[i*n : i*n+i+1]
					for t, v := range brow {
						krow[t] = sv * v
					}
				}
				k.AddDiag(noise + 1e-8)
				if _, ok := factorInPlaceWithJitter(k, ch.L, 1e-8, 8); !ok {
					continue
				}
				// yᵀK⁻¹y = ‖L⁻¹y‖²: the forward half of the solve suffices.
				ch.SolveLowerInto(z, g.ys)
				lm := -0.5*linalg.Dot(z, z) - 0.5*ch.LogDet() - logConst
				if lm > best {
					best = lm
					bestH = Hyper{SignalVar: sv, Lengthscale: l, NoiseStd: nz}
				}
			}
		}
	}
	g.Hyper = bestH
}

// Predict returns the posterior mean and standard deviation at point p in
// original y units. An unfitted GP returns (0, +Inf). Predict reuses
// per-instance workspaces and performs no allocations.
func (g *GP) Predict(p []float64) (mu, sigma float64) {
	if g.chol == nil {
		return 0, math.Inf(1)
	}
	n, d := g.x.R, g.x.C
	ks := g.wsK[:n]
	g.kernelVecInto(ks, p, n, d)
	muStd := linalg.Dot(ks, g.alpha)
	// k*ᵀK⁻¹k* = ‖L⁻¹k*‖²: the forward half of the solve suffices.
	v := g.wsV[:n]
	g.chol.SolveLowerInto(v, ks)
	varStd := g.Hyper.SignalVar - linalg.Dot(v, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*g.yStd + g.yMean, math.Sqrt(varStd) * g.yStd
}

// kernelVecInto fills ks with k(x_i, p) for every training point.
func (g *GP) kernelVecInto(ks, p []float64, n, d int) {
	xd := g.x.Data
	sv, l := g.Hyper.SignalVar, g.Hyper.Lengthscale
	switch g.Kernel {
	case Matern52:
		for i := 0; i < n; i++ {
			xi := xd[i*d : (i+1)*d]
			var d2 float64
			for k, v := range xi {
				diff := v - p[k]
				d2 += diff * diff
			}
			r := math.Sqrt(d2) / l
			s5 := sqrt5 * r
			ks[i] = sv * ((1 + s5 + 5*r*r/3) * math.Exp(-s5))
		}
	default:
		twoL2 := 2 * l * l
		for i := 0; i < n; i++ {
			xi := xd[i*d : (i+1)*d]
			var d2 float64
			for k, v := range xi {
				diff := v - p[k]
				d2 += diff * diff
			}
			ks[i] = sv * math.Exp(-d2/twoL2)
		}
	}
}

// ExpectedImprovement returns EI at p for minimization against the incumbent
// best observed value. Larger is better; 0 before a successful Fit.
func (g *GP) ExpectedImprovement(p []float64, best float64) float64 {
	return expectedImprovementAt(g, p, best)
}

// ScoreCandidates returns Expected Improvement against best for every
// candidate, writing into dst when it has capacity (pass nil to allocate).
// One batched call serves a whole candidate pool allocation-free — the
// screening step of the iTuned and OtterTune proposal loops.
func (g *GP) ScoreCandidates(points [][]float64, best float64, dst []float64) []float64 {
	return scoreCandidates(g, points, best, dst)
}

// TrainingSize returns the number of conditioning points.
func (g *GP) TrainingSize() int {
	if g.x == nil {
		return 0
	}
	return g.x.R
}

// Tier implements Surrogate: the exact O(n³) tier.
func (g *GP) Tier() string { return "exact" }

// growWorkspaces ensures the prediction workspaces hold n entries.
func (g *GP) growWorkspaces(n int) {
	if cap(g.wsK) < n {
		g.wsK = make([]float64, n)
		g.wsV = make([]float64, n)
	}
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
