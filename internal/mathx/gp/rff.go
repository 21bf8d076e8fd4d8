package gp

import (
	"errors"
	"math"

	"repro/internal/mathx/linalg"
	"repro/internal/mathx/xrand"
)

// RFF is a random-Fourier-feature Bayesian linear regressor (Rahimi &
// Recht): the kernel is approximated by D explicit features
// φ(x) = √(2σ²/D)·cos(ωᵀx + b) with ω drawn from the kernel's spectral
// density, and the GP posterior becomes exact Bayesian linear regression in
// feature space. Fit costs O(n·D²), Predict O(D²) independent of n, and
// Append O(n·D + D²) via a rank-1 Cholesky update of the Gram matrix — the
// cheapest tier for long sessions and high-dimensional spaces, at the cost
// of Monte-Carlo kernel error that shrinks as O(1/√D).
//
// The feature frequencies are drawn once per Fit from a rand stream seeded
// by Seed alone, so for a fixed seed the model — and every event stream
// built on it — is a pure function of the data at any parallelism.
//
// Like the other tiers, an RFF instance is not safe for concurrent use.
type RFF struct {
	Kernel KernelKind
	Hyper  Hyper
	// Seed drives the spectral sampling (default 0 — still deterministic).
	Seed int64
	// featureCount is the random feature count D (0 = DefaultFeatures); only
	// gp's tests set it.
	featureCount int

	trainingSet
	w0    *linalg.Matrix // D×d unit-lengthscale frequencies
	b0    []float64      // D phases in [0, 2π)
	phi   *linalg.Matrix // n×D features at the current hyperparameters (grown in place by Append)
	lg    *linalg.Cholesky
	wv    []float64 // D posterior weight means
	noise float64   // observation noise variance (incl. jitter) behind lg
	wsPhi []float64 // D: feature vector at the query point
	wsV   []float64 // D: forward-solve scratch; Append's rank-1 vector, solveWeights' right-hand side
}

// NewRFF returns an RFF surrogate with the given kernel, DefaultFeatures
// features and the given spectral seed.
func NewRFF(kernel KernelKind, seed int64) *RFF {
	return &RFF{Kernel: kernel, Seed: seed, Hyper: Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.1}}
}

// Tier implements Surrogate.
func (r *RFF) Tier() string { return "rff" }

// TrainingSize implements Surrogate.
func (r *RFF) TrainingSize() int { return len(r.yRaw) }

func (r *RFF) features() int {
	if r.featureCount > 0 {
		return r.featureCount
	}
	return DefaultFeatures
}

// sampleSpectrum draws the D×d unit-lengthscale frequency matrix and D
// phases for the kernel's spectral density: Gaussian for the squared-
// exponential kernel, multivariate Student-t with ν = 5 degrees of freedom
// for Matérn 5/2 (ω = z·√(ν/u) with u ~ χ²ν). Deterministic in Seed.
func (r *RFF) sampleSpectrum(d int) {
	D := r.features()
	rng := xrand.New(r.Seed ^ 0x5eed_f0f0_cafe)
	r.w0 = linalg.New(D, d)
	r.b0 = make([]float64, D)
	for i := 0; i < D; i++ {
		row := r.w0.Data[i*d : (i+1)*d]
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if r.Kernel == Matern52 {
			var u float64
			for k := 0; k < 5; k++ {
				g := rng.NormFloat64()
				u += g * g
			}
			scale := math.Sqrt(5 / u)
			for j := range row {
				row[j] *= scale
			}
		}
		r.b0[i] = rng.Float64() * 2 * math.Pi
	}
}

// featureInto writes φ(p) into dst for the current hyperparameters.
func (r *RFF) featureInto(dst, p []float64) {
	D, d := r.w0.R, r.w0.C
	amp := math.Sqrt(2 * r.Hyper.SignalVar / float64(D))
	invL := 1 / r.Hyper.Lengthscale
	wd := r.w0.Data
	for i := 0; i < D; i++ {
		row := wd[i*d : (i+1)*d]
		var t float64
		for j, w := range row {
			t += w * p[j]
		}
		dst[i] = amp * math.Cos(t*invL+r.b0[i])
	}
}

// Fit implements Surrogate: sample the spectrum, optionally select
// hyperparameters on a deterministic k-center subset of DefaultInducing
// points, build the feature matrix, and factor the Gram matrix — O(n·D²).
// It reserves capacity for half as many Appends as the subset holds (see
// SparseGP.appendRoom).
func (r *RFF) Fit(x [][]float64, y []float64, optimize bool) error {
	d, err := r.load(x, y, DefaultInducing/2)
	if err != nil {
		r.lg = nil
		return err
	}
	r.sampleSpectrum(d)
	if optimize {
		sub := kCenterIndices(r.x, min(DefaultInducing, len(y)))
		r.Hyper = subsetHypers(r.Kernel, r.x, r.yRaw, sub, r.Hyper)
	}
	return r.refit()
}

// refit rebuilds features, Gram factor, and weights for the current
// hyperparameters.
func (r *RFF) refit() error {
	n, d := r.x.R, r.x.C
	D := r.w0.R
	r.phi = newRows(n, D, DefaultInducing/2)
	xd := r.x.Data
	for i := 0; i < n; i++ {
		r.featureInto(r.phi.Data[i*D:(i+1)*D], xd[i*d:(i+1)*d])
	}
	r.noise = r.Hyper.NoiseStd*r.Hyper.NoiseStd + 1e-8
	g := linalg.New(D, D)
	g.AddDiag(r.noise)
	accumGram(g, r.phi, nil)
	lg := &linalg.Cholesky{L: linalg.New(D, D)}
	if _, err := linalg.CholeskyWithJitter(g, lg.L); err != nil {
		r.lg = nil
		return err
	}
	r.lg = lg
	r.wv = resize(r.wv, D)
	if cap(r.wsPhi) < D {
		r.wsPhi = make([]float64, D)
		r.wsV = make([]float64, D)
	}
	r.solveWeights()
	return nil
}

// solveWeights recomputes wv = G⁻¹·Φᵀys — O(n·D + D²).
func (r *RFF) solveWeights() {
	n, D := r.phi.R, r.phi.C
	b := r.wsV[:D]
	clear(b)
	for i := 0; i < n; i++ {
		row := r.phi.Data[i*D : (i+1)*D]
		yi := r.ys[i]
		for j, p := range row {
			b[j] += p * yi
		}
	}
	r.lg.SolveVecInto(r.wv, b)
}

// Append implements Surrogate: the new observation's feature row joins Φ,
// the Gram factor absorbs it as a rank-1 update, and the weights re-solve
// against the re-standardized targets — O(n·D + D²), no refactorization, and
// no allocation while the capacity Fit reserved lasts.
func (r *RFF) Append(x []float64, y float64) error {
	if r.lg == nil {
		return errors.New("gp: rff Append before Fit")
	}
	if err := r.push(x, y); err != nil {
		return err
	}
	D := r.phi.C
	r.featureInto(r.wsPhi[:D], x)
	v := r.wsV[:D]
	copy(v, appendRow(r.phi, r.wsPhi[:D]))
	r.lg.Rank1Update(v)
	r.solveWeights()
	return nil
}

// Predict implements Surrogate. An unfitted RFF returns (0, +Inf).
func (r *RFF) Predict(p []float64) (mu, sigma float64) {
	if r.lg == nil {
		return 0, math.Inf(1)
	}
	D := r.phi.C
	phi := r.wsPhi[:D]
	r.featureInto(phi, p)
	muStd := linalg.Dot(phi, r.wv)
	v := r.wsV[:D]
	r.lg.SolveLowerInto(v, phi)
	// Posterior weight covariance is σ_n²·G⁻¹, so the latent variance at p
	// is σ_n²·‖Lg⁻¹·φ‖² — converging to the exact GP posterior variance as
	// D → ∞.
	varStd := r.noise * linalg.Dot(v, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*r.yStd + r.yMean, math.Sqrt(varStd) * r.yStd
}

// ExpectedImprovement implements Surrogate.
func (r *RFF) ExpectedImprovement(p []float64, best float64) float64 {
	return expectedImprovementAt(r, p, best)
}

// ScoreCandidates implements Surrogate.
func (r *RFF) ScoreCandidates(points [][]float64, best float64, dst []float64) []float64 {
	return scoreCandidates(r, points, best, dst)
}
