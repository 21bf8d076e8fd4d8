package gp

import (
	"errors"
	"math"
	"runtime"

	"repro/internal/mathx/linalg"
)

// SparseGP is an inducing-point Gaussian process (FITC — fully independent
// training conditional) over m ≪ n deterministic greedy k-center inducing
// points. It bends the exact GP's asymptote: Fit costs O(n·m²) instead of
// O(n³), Predict O(m²) instead of O(n²), and Append O(n·m + m²) via a
// rank-1 Cholesky update of the information matrix. As m → n it converges
// to the exact GP (at m = n the FITC correction vanishes and the two agree
// up to floating-point grouping).
//
// The math, in standardized-y units with Λᵢ = k(xᵢ,xᵢ) − ‖Lmm⁻¹·kmᵢ‖² + σ_n²
// (the FITC diagonal) and A = Kmm + Σᵢ kmᵢ·kmᵢᵀ/Λᵢ:
//
//	μ(x*)  = km*ᵀ · A⁻¹ · Σᵢ kmᵢ·ysᵢ/Λᵢ
//	σ²(x*) = k(x*,x*) − ‖Lmm⁻¹·km*‖² + ‖La⁻¹·km*‖²
//
// Hyperparameters are selected by the exact GP's grid search restricted to
// the inducing subset — O(m³) per candidate, not O(n³).
//
// Like the exact GP, a SparseGP is not safe for concurrent use (per-
// instance workspaces); distinct instances are independent.
type SparseGP struct {
	Kernel KernelKind
	Hyper  Hyper
	// MaxInducing caps the inducing set size m (default 64).
	MaxInducing int
	// Workers bounds the fan-out of the parallel fit stages
	// (0 = GOMAXPROCS). Results are bit-identical at every value.
	Workers int

	trainingSet
	inducing  []int          // ascending row indices of the inducing set
	z         *linalg.Matrix // m×d inducing inputs
	lm        *linalg.Cholesky
	knm       *linalg.Matrix // n×m cross-kernel rows (grown in place by Append)
	lam       []float64      // FITC diagonal Λᵢ (includes noise)
	la        *linalg.Cholesky
	alpha     []float64
	jitterKmm float64
	wsK       []float64 // m: kernel vector at the query point
	wsU       []float64 // m: Lmm forward-solve scratch; solveAlpha's right-hand side
	wsW       []float64 // m: La forward-solve scratch; Append's rank-1 vector
}

// NewSparse returns a sparse GP with the given kernel and the exact GP's
// default hyperparameters.
func NewSparse(kernel KernelKind) *SparseGP {
	return &SparseGP{Kernel: kernel, Hyper: Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.1}}
}

// Tier implements Surrogate.
func (s *SparseGP) Tier() string { return "sparse" }

// TrainingSize implements Surrogate.
func (s *SparseGP) TrainingSize() int { return len(s.yRaw) }

func (s *SparseGP) maxInducing() int {
	if s.MaxInducing > 0 {
		return s.MaxInducing
	}
	return 64
}

// appendRoom is how many Appends Fit reserves capacity for: half the
// hyperparameter-search subset, twice the tail a caller that re-fits once the
// appended observations reach a quarter of it (tune.SurrogateModel) lets
// grow. Appends past it still work; they grow the arrays the amortized way.
func (s *SparseGP) appendRoom() int { return s.maxInducing() / 2 }

// Fit implements Surrogate. It selects the inducing set by greedy k-center,
// optionally grid-searches hyperparameters on that subset, and conditions
// the FITC model in O(n·m²).
func (s *SparseGP) Fit(x [][]float64, y []float64, optimize bool) error {
	if _, err := s.load(x, y, s.appendRoom()); err != nil {
		s.invalidate()
		return err
	}
	m := s.maxInducing()
	if m > len(y) {
		m = len(y)
	}
	s.inducing = kCenterIndices(s.x, m)
	if optimize {
		s.Hyper = subsetHypers(s.Kernel, s.x, s.yRaw, s.inducing, s.Hyper)
	}
	return s.refit()
}

// kernelRowInto writes k(p, z_j) for every inducing point into dst.
func (s *SparseGP) kernelRowInto(dst, p []float64) {
	m, d := s.z.R, s.z.C
	zd := s.z.Data
	sv, l := s.Hyper.SignalVar, s.Hyper.Lengthscale
	for j := 0; j < m; j++ {
		zj := zd[j*d : (j+1)*d]
		var d2 float64
		for k, v := range zj {
			diff := v - p[k]
			d2 += diff * diff
		}
		dst[j] = sv * baseKernelAt(s.Kernel, d2, l)
	}
}

// refit rebuilds the FITC conditioning for the current hyperparameters and
// inducing set.
func (s *SparseGP) refit() error {
	n, d := s.x.R, s.x.C
	m := len(s.inducing)
	s.z = linalg.New(m, d)
	for i, at := range s.inducing {
		copy(s.z.Data[i*d:(i+1)*d], s.x.Data[at*d:(at+1)*d])
	}
	sv, l := s.Hyper.SignalVar, s.Hyper.Lengthscale
	noise := s.Hyper.NoiseStd*s.Hyper.NoiseStd + 1e-8

	// Kmm with jitter, factored once.
	kmm := linalg.New(m, m)
	zd := s.z.Data
	for i := 0; i < m; i++ {
		zi := zd[i*d : (i+1)*d]
		for j := i; j < m; j++ {
			zj := zd[j*d : (j+1)*d]
			var d2 float64
			for k, v := range zi {
				diff := v - zj[k]
				d2 += diff * diff
			}
			v := sv * baseKernelAt(s.Kernel, d2, l)
			kmm.Data[i*m+j] = v
			kmm.Data[j*m+i] = v
		}
	}
	kmm.AddDiag(1e-8)
	lm, added, err := linalg.CholeskyWithJitter(kmm, 1e-8, 8)
	if err != nil {
		s.invalidate()
		return err
	}
	s.lm, s.jitterKmm = lm, added

	// Cross-kernel rows and the whitened rows V = (Lmm⁻¹·Knmᵀ)ᵀ.
	s.knm = newRows(n, m, s.appendRoom())
	xd := s.x.Data
	parallelGram((n+255)/256, s.workers(), func(c int) {
		lo, hi := c*256, (c+1)*256
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			s.kernelRowInto(s.knm.Data[i*m:(i+1)*m], xd[i*d:(i+1)*d])
		}
	})
	v := linalg.New(n, m)
	lm.SolveLowerEach(v, s.knm, s.workers())

	// FITC diagonal: prior variance minus the Nyström explained part, plus
	// noise; floored to keep the weights finite on duplicated points.
	s.lam = make([]float64, n, n+s.appendRoom())
	for i := 0; i < n; i++ {
		row := v.Data[i*m : (i+1)*m]
		var q float64
		for _, w := range row {
			q += w * w
		}
		li := sv - q + noise
		if li < 1e-10 {
			li = 1e-10
		}
		s.lam[i] = li
	}

	// Information matrix A = Kmm + Σ kmᵢ·kmᵢᵀ/Λᵢ and its factor.
	wts := make([]float64, n)
	for i := range wts {
		wts[i] = 1 / s.lam[i]
	}
	a := accumGram(kmm, s.knm, wts, s.workers())
	la, _, err := linalg.CholeskyWithJitter(a, 1e-8, 8)
	if err != nil {
		s.invalidate()
		return err
	}
	s.la = la
	s.alpha = resize(s.alpha, m)
	s.growWorkspaces(m)
	s.solveAlpha()
	return nil
}

// solveAlpha recomputes alpha = A⁻¹·Σ kmᵢ·ysᵢ/Λᵢ — O(n·m + m²).
func (s *SparseGP) solveAlpha() {
	n, m := s.knm.R, s.knm.C
	b := s.wsU[:m]
	clear(b)
	for i := 0; i < n; i++ {
		w := s.ys[i] / s.lam[i]
		row := s.knm.Data[i*m : (i+1)*m]
		for j, kv := range row {
			b[j] += w * kv
		}
	}
	s.la.SolveVecInto(s.alpha, b)
}

func (s *SparseGP) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *SparseGP) invalidate() {
	s.lm, s.la = nil, nil
}

// Append implements Surrogate: one new observation with the inducing set
// and hyperparameters frozen. The information matrix absorbs the point as
// a rank-1 Cholesky update and alpha is re-solved against the
// re-standardized targets — O(n·m + m²) total, no refactorization, and no
// allocation while the capacity Fit reserved lasts.
func (s *SparseGP) Append(x []float64, y float64) error {
	if s.la == nil {
		return errors.New("gp: sparse Append before Fit")
	}
	if err := s.push(x, y); err != nil {
		return err
	}
	m := len(s.inducing)
	s.kernelRowInto(s.wsK[:m], x)
	row := appendRow(s.knm, s.wsK[:m])

	u := s.wsU[:m]
	s.lm.SolveLowerInto(u, row)
	noise := s.Hyper.NoiseStd*s.Hyper.NoiseStd + 1e-8
	li := s.Hyper.SignalVar - linalg.Dot(u, u) + noise
	if li < 1e-10 {
		li = 1e-10
	}
	s.lam = append(s.lam, li)

	v := s.wsW[:m]
	inv := 1 / math.Sqrt(li)
	for j, kv := range row {
		v[j] = kv * inv
	}
	s.la.Rank1Update(v)
	s.solveAlpha()
	return nil
}

// Predict implements Surrogate. An unfitted sparse GP returns (0, +Inf).
func (s *SparseGP) Predict(p []float64) (mu, sigma float64) {
	if s.la == nil {
		return 0, math.Inf(1)
	}
	m := len(s.inducing)
	ks := s.wsK[:m]
	s.kernelRowInto(ks, p)
	muStd := linalg.Dot(ks, s.alpha)
	u := s.wsU[:m]
	s.lm.SolveLowerInto(u, ks)
	w := s.wsW[:m]
	s.la.SolveLowerInto(w, ks)
	varStd := s.Hyper.SignalVar - linalg.Dot(u, u) + linalg.Dot(w, w)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*s.yStd + s.yMean, math.Sqrt(varStd) * s.yStd
}

// ExpectedImprovement implements Surrogate.
func (s *SparseGP) ExpectedImprovement(p []float64, best float64) float64 {
	return expectedImprovementAt(s, p, best)
}

// ScoreCandidates implements Surrogate.
func (s *SparseGP) ScoreCandidates(points [][]float64, best float64, dst []float64) []float64 {
	return scoreCandidates(s, points, best, dst)
}

func (s *SparseGP) growWorkspaces(m int) {
	if cap(s.wsK) < m {
		s.wsK = make([]float64, m)
		s.wsU = make([]float64, m)
		s.wsW = make([]float64, m)
	}
}

// baseKernelAt evaluates the unit-signal-variance kernel at squared
// distance d2 — the same arithmetic as the exact GP's baseAt, shared so the
// tiers agree on kernel values bit-for-bit.
func baseKernelAt(kernel KernelKind, d2, l float64) float64 {
	switch kernel {
	case Matern52:
		r := math.Sqrt(d2) / l
		s5 := sqrt5 * r
		return (1 + s5 + 5*r*r/3) * math.Exp(-s5)
	default:
		return math.Exp(-d2 / (2 * l * l))
	}
}
