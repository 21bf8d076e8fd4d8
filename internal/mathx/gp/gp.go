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
// per lengthscale — and its 105 candidates go four to a lane block: four
// scaled copies with their diagonal adds, factored and solved by one
// linalg.CholeskyLanes and one linalg.SolveLowerLanes, each lane with the
// bits of its own linalg.CholeskyInto.
//
// A fitted GP can also absorb one new observation with unchanged
// hyperparameters via Append, which is a Fit of the grown training set.
//
// A GP instance is not safe for concurrent use: Predict and the acquisition
// functions share per-instance workspaces to stay allocation-free. Distinct
// instances are independent.
package gp

import (
	"errors"
	"math"

	"repro/internal/mathx/linalg"
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

	x     columns        // the n training inputs, column-major (deep copy of the caller's rows)
	d2    *linalg.Matrix // n×n pairwise squared distances, built once per Fit
	yRaw  []float64
	yMean float64
	yStd  float64
	ys    []float64 // standardized targets, computed once per Fit
	chol  *linalg.Cholesky
	alpha []float64

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
	g.x.reset(len(x), len(x[0]))
	for i, row := range x {
		g.x.set(i, row)
	}
	g.yRaw = append(g.yRaw[:0], y...)
	g.ys, g.yMean, g.yStd = standardize(g.ys, g.yRaw)
	g.d2 = g.x.sqDistMatrix(g.d2)
	if optimize {
		g.optimizeHypers()
	}
	return g.refit()
}

// expChunk is how many kernel values kernelRow hands linalg.ExpInto at once:
// its scratch is a stack array of this size.
const expChunk = 64

// kernelRow overwrites row, which holds squared distances, with sv·k(d²) at
// lengthscale l. It is every tier's one kernel formula, so the tiers agree on
// kernel values bit for bit; sv = 1 is the unit-signal-variance kernel
// exactly. Each chunk is three passes: the exponent's argument, one
// linalg.ExpInto, then the scale; the Matérn kernel's first and last passes
// are linalg.MaternArgInto and linalg.MaternScaleInto.
func kernelRow(kernel KernelKind, row []float64, sv, l float64) {
	var e [expChunk]float64
	twoL2 := 2 * l * l
	for len(row) > 0 {
		c := row[:min(len(row), expChunk)]
		row = row[len(c):]
		arg := e[:len(c)]
		switch kernel {
		case Matern52:
			linalg.MaternArgInto(c, arg, l)
			linalg.ExpInto(arg, arg)
			linalg.MaternScaleInto(c, arg, sv)
		default:
			for i, d2 := range c {
				arg[i] = -d2 / twoL2
			}
			linalg.ExpInto(arg, arg)
			for i, v := range arg {
				c[i] = sv * v
			}
		}
	}
}

// columns is a column-major copy of a set of input rows, the layout every
// distance a kernel row needs is read from: input k of row i sits at
// data[k·n+i], so linalg.SqDistsCols measures a row per vector lane.
type columns struct {
	data []float64
	n, d int
}

// reset sizes c for n rows of d inputs, reusing its array when it is large
// enough; set then writes the rows.
func (c *columns) reset(n, d int) {
	c.n, c.d = n, d
	c.data = resize(c.data, d*n)
}

// set writes row i.
func (c *columns) set(i int, row []float64) {
	for k, v := range row[:c.d] {
		c.data[k*c.n+i] = v
	}
}

// rows returns a row-major copy of c's rows.
func (c *columns) rows() [][]float64 {
	flat := make([]float64, c.n*c.d)
	out := make([][]float64, c.n)
	for i := range out {
		out[i] = flat[i*c.d : (i+1)*c.d]
		for k := range out[i] {
			out[i][k] = c.data[k*c.n+i]
		}
	}
	return out
}

// sqDistsInto sets dst[j] = ‖row(from+j) − p‖² for every j < len(dst), with
// the bits of the one-row loop over the row-major row.
func (c *columns) sqDistsInto(dst []float64, from int, p []float64) {
	if c.d == 0 {
		clear(dst) // no columns to offset into
		return
	}
	linalg.SqDistsCols(dst, c.data[from:], c.n, p)
}

// sqDistMatrix returns the pairwise squared distances of c's rows, reusing
// dst when it has the size.
func (c *columns) sqDistMatrix(dst *linalg.Matrix) *linalg.Matrix {
	n := c.n
	if dst == nil || dst.R != n {
		dst = linalg.New(n, n)
	}
	dd := dst.Data
	p := make([]float64, c.d)
	for i := 0; i < n; i++ {
		for k := range p {
			p[k] = c.data[k*n+i]
		}
		dd[i*n+i] = 0
		c.sqDistsInto(dd[i*n+i+1:(i+1)*n], i+1, p)
		for j := i + 1; j < n; j++ {
			dd[j*n+i] = dd[i*n+j]
		}
	}
	return dst
}

// kernelMatrixInto writes sv·k(d²) for the n×n squared distances d2 into
// k, which may be d2: it builds each row's upper part and mirrors it.
func kernelMatrixInto(kernel KernelKind, k, d2 *linalg.Matrix, sv, l float64) {
	n := d2.R
	kd := k.Data
	for i := 0; i < n; i++ {
		row := kd[i*n+i : (i+1)*n]
		copy(row, d2.Data[i*n+i:(i+1)*n])
		kernelRow(kernel, row, sv, l)
		for j := i + 1; j < n; j++ {
			kd[j*n+i] = kd[i*n+j]
		}
	}
}

// refit factors the kernel matrix for the current hyperparameters and solves
// for alpha. The kernel matrix derives from the distance cache.
func (g *GP) refit() error {
	n := g.x.n
	k := linalg.New(n, n)
	kernelMatrixInto(g.Kernel, k, g.d2, g.Hyper.SignalVar, g.Hyper.Lengthscale)
	noise := g.Hyper.NoiseStd * g.Hyper.NoiseStd
	k.AddDiag(noise + 1e-8)
	l := linalg.New(n, n)
	if _, err := linalg.CholeskyWithJitter(k, l); err != nil {
		// Invalidate rather than leave a factor sized for the previous
		// training set: Predict then reports total uncertainty instead of
		// panicking on mismatched lengths.
		g.chol = nil
		return err
	}
	g.chol = &linalg.Cholesky{L: l}
	g.alpha = resize(g.alpha, n)
	g.chol.SolveVecInto(g.alpha, g.ys)
	g.growWorkspaces(n)
	return nil
}

// Append conditions a fitted GP on one more observation without changing
// hyperparameters: it is a Fit of the stored rows and x, optimize off. A
// refused observation leaves the model as it was.
func (g *GP) Append(x []float64, y float64) error {
	if g.chol == nil {
		return errors.New("gp: Append before Fit")
	}
	if len(x) != g.x.d {
		return errors.New("gp: Append dimension mismatch")
	}
	if err := checkObservation(x, y); err != nil {
		return err
	}
	// The grown targets may share yRaw's array; Fit copies them onto it in
	// place.
	return g.Fit(append(g.x.rows(), x), append(g.yRaw, y), false)
}

// The hyperparameter grid: lengthscales × noise standard deviations ×
// signal variances, over ranges suited to unit-cube inputs and standardized
// outputs.
var (
	gridLengths = [...]float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2}
	gridNoises  = [...]float64{0.01, 0.05, 0.1, 0.2, 0.4}
	gridSignals = [...]float64{0.5, 1.0, 2.0}
)

// optimizeHypers sets g.Hyper to the grid candidate of highest
// log-marginal likelihood, the first in scanHyperGrid's order on a tie; it
// keeps g.Hyper when no candidate's kernel matrix factors.
func (g *GP) optimizeHypers() {
	best := math.Inf(-1)
	scanHyperGrid(g.Kernel, g.d2, g.ys, func(h Hyper, lm float64) {
		if lm > best {
			best, g.Hyper = lm, h
		}
	})
}

// scanHyperGrid calls visit with the log-marginal likelihood of ys under
// every grid candidate whose kernel matrix factors, lengthscale-major, then
// noise, then signal variance, for the inputs whose pairwise squared
// distances are d2. The grid is factored: one base kernel build B per
// lengthscale, and each (noise, signal) candidate is σ²·B + (σ_n² + 1e-8)·I,
// packed four candidates to a lane block for linalg.CholeskyLanes and
// linalg.SolveLowerLanes (the last block's spare lane repeats the last
// candidate and is not scored).
// A lane that succeeds is the factor linalg.CholeskyWithJitter's first,
// jitter-free try gives; a lane that fails is rebuilt and handed to that
// very call, so every candidate scores as on its own.
func scanHyperGrid(kernel KernelKind, d2 *linalg.Matrix, ys []float64, visit func(h Hyper, lm float64)) {
	const lanes = linalg.Lanes
	candidates := len(gridNoises) * len(gridSignals)
	n := d2.R
	b := linalg.New(n, n)
	quads := make([]float64, lanes*n*n) // a lane block's matrices, factored in place
	y4 := make([]float64, lanes*n)
	z4 := make([]float64, lanes*n)
	for i, v := range ys {
		for c := 0; c < lanes; c++ {
			y4[lanes*i+c] = v
		}
	}
	// ch serves each lane's LogDet (which reads only the diagonal) and the
	// jitter fallback, which rebuilds its candidate in k.
	ch := &linalg.Cholesky{L: linalg.New(n, n)}
	k := linalg.New(n, n)
	z := make([]float64, n)
	logConst := 0.5 * float64(n) * math.Log(2*math.Pi)
	for _, l := range gridLengths {
		kernelMatrixInto(kernel, b, d2, 1, l)
		for q0 := 0; q0 < candidates; q0 += lanes {
			var hs [lanes]Hyper
			var sv, diag [lanes]float64
			for c := range hs {
				q := min(q0+c, candidates-1)
				nz := gridNoises[q/len(gridSignals)]
				hs[c] = Hyper{SignalVar: gridSignals[q%len(gridSignals)], Lengthscale: l, NoiseStd: nz}
				sv[c], diag[c] = hs[c].SignalVar, nz*nz+1e-8
			}
			// Only the lower triangle feeds the factorization.
			for i := 0; i < n; i++ {
				row := quads[lanes*i*n : lanes*(i*n+i+1)]
				linalg.ScaleLanesInto(row, b.Data[i*n:i*n+i+1], &sv)
				for c, dg := range diag {
					row[lanes*i+c] += dg
				}
			}
			failed := linalg.CholeskyLanes(quads, quads, n)
			// yᵀK⁻¹y = ‖L⁻¹y‖²: the forward half of the solve suffices.
			linalg.SolveLowerLanes(z4, quads, y4, n)
			for c := 0; c < lanes && q0+c < candidates; c++ {
				if failed&(1<<c) == 0 {
					for i := range z {
						z[i] = z4[lanes*i+c]
						ch.L.Data[i*n+i] = quads[lanes*(i*n+i)+c]
					}
				} else {
					for i := 0; i < n; i++ {
						krow := k.Data[i*n : i*n+i+1]
						for t, v := range b.Data[i*n : i*n+i+1] {
							krow[t] = sv[c] * v
						}
					}
					k.AddDiag(diag[c])
					if _, err := linalg.CholeskyWithJitter(k, ch.L); err != nil {
						continue
					}
					ch.SolveLowerInto(z, ys)
				}
				visit(hs[c], -0.5*linalg.Dot(z, z)-0.5*ch.LogDet()-logConst)
			}
		}
	}
}

// Predict returns the posterior mean and standard deviation at point p in
// original y units. An unfitted GP returns (0, +Inf). Predict reuses
// per-instance workspaces and performs no allocations.
func (g *GP) Predict(p []float64) (mu, sigma float64) {
	if g.chol == nil {
		return 0, math.Inf(1)
	}
	ks := g.wsK[:g.x.n]
	g.kernelVecInto(ks, p)
	muStd := linalg.Dot(ks, g.alpha)
	// k*ᵀK⁻¹k* = ‖L⁻¹k*‖²: the forward half of the solve suffices.
	v := g.wsV[:len(ks)]
	g.chol.SolveLowerInto(v, ks)
	varStd := g.Hyper.SignalVar - linalg.Dot(v, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*g.yStd + g.yMean, math.Sqrt(varStd) * g.yStd
}

// kernelVecInto fills ks with k(x_i, p) for every training point.
func (g *GP) kernelVecInto(ks, p []float64) {
	g.x.sqDistsInto(ks, 0, p)
	kernelRow(g.Kernel, ks, g.Hyper.SignalVar, g.Hyper.Lengthscale)
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
func (g *GP) TrainingSize() int { return g.x.n }

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
