package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization failed.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	L *Matrix
}

// NewCholesky factors the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. If factorization fails (a is not positive
// definite within floating point), it returns ErrNotPositiveDefinite; Gaussian
// process code responds by increasing the jitter on the diagonal.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.R != a.C {
		return nil, errors.New("linalg: cholesky of non-square matrix")
	}
	l := New(a.R, a.R)
	if err := CholeskyInto(a, l); err != nil {
		return nil, err
	}
	return &Cholesky{L: l}, nil
}

// kernelMinLen is the row length from which dot4 and CholeskyInto hand a row
// to the assembly kernels; shorter rows (small fits) stay on the Go loops,
// where a call would cost more than it saves. The two paths agree bit for
// bit, so the threshold is invisible in every result.
const kernelMinLen = 8

// Kernel names the path dot4 and CholeskyInto take in this process: "avx2"
// for the assembly kernels, "generic" for the Go loops alone.
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// dot4 returns Σ a[i]·b[i] accumulated in four interleaved partial sums.
// The interleaving breaks the floating-point add dependency chain (the
// Cholesky inner-loop bottleneck) while keeping a fixed, deterministic
// summation order. CholeskyInto and Extend share it so a bordered extension
// stays bit-identical to a full refactorization. The loop below is the
// specification; dot4AVX2 reproduces its every rounding step.
func dot4(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination hint
	if useAVX2 && len(a) >= kernelMinLen {
		return dot4AVX2(&a[0], &b[0], len(a))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// CholeskyInto factors a into the preallocated n×n matrix l, allocating
// nothing. It is the workspace-reuse form of NewCholesky for hot loops that
// factor many same-sized matrices (the GP hyperparameter grid). The strict
// upper triangle of l is zeroed; arithmetic order matches NewCholesky exactly,
// so the two produce bit-identical factors.
func CholeskyInto(a, l *Matrix) error {
	n := a.R
	if a.C != n || l.R != n || l.C != n {
		return errors.New("linalg: cholesky dimension mismatch")
	}
	ad, ld := a.Data, l.Data
	for j := 0; j < n; j++ {
		rowj := ld[j*n : j*n+j]
		d := ad[j*n+j] - dot4(rowj, rowj)
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		ld[j*n+j] = d
		for k := j + 1; k < n; k++ {
			ld[j*n+k] = 0
		}
		if useAVX2 && j >= kernelMinLen {
			// Four rows per pass against one load of rowj; the last n-i < 4
			// rows take the same arithmetic one dot4 at a time.
			i := j + 1
			if groups := (n - i) / 4; groups > 0 {
				cholColumnAVX2(&ld[0], &ad[0], n, j, i, groups, d)
				i += 4 * groups
			}
			for ; i < n; i++ {
				ld[i*n+j] = (ad[i*n+j] - dot4(ld[i*n:i*n+j], rowj)) / d
			}
			continue
		}
		for i := j + 1; i < n; i++ {
			// dot4(ld[i*n:i*n+j], rowj) inlined by hand (a closed loop keeps
			// the callee out of the inliner); accumulation order must stay
			// identical to dot4 so Extend remains bit-compatible.
			ri := ld[i*n : i*n+j]
			ri = ri[:len(rowj)]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= len(ri); k += 4 {
				s0 += ri[k] * rowj[k]
				s1 += ri[k+1] * rowj[k+1]
				s2 += ri[k+2] * rowj[k+2]
				s3 += ri[k+3] * rowj[k+3]
			}
			for ; k < len(ri); k++ {
				s0 += ri[k] * rowj[k]
			}
			ld[i*n+j] = (ad[i*n+j] - ((s0 + s1) + (s2 + s3))) / d
		}
	}
	return nil
}

// Extend returns the factor of the (n+1)×(n+1) bordered matrix
//
//	[ A   r ]
//	[ rᵀ  d ]
//
// given the receiver's factor of A, the cross row r, and the new diagonal
// entry d. It costs O(n²) — one forward substitution plus a copy — versus
// O(n³) for refactorizing from scratch, and computes every entry with the
// same arithmetic, in the same order, as NewCholesky on the bordered matrix,
// so the result is bit-identical to a full refactorization. This is what
// makes incremental GP conditioning safe under the repository's determinism
// guarantee.
func (c *Cholesky) Extend(row []float64, diag float64) (*Cholesky, error) {
	n := c.L.R
	if len(row) != n {
		return nil, errors.New("linalg: extend row length mismatch")
	}
	m := n + 1
	nl := New(m, m)
	old := c.L.Data
	for i := 0; i < n; i++ {
		copy(nl.Data[i*m:i*m+i+1], old[i*n:i*n+i+1])
	}
	last := nl.Data[n*m : n*m+n]
	for j := 0; j < n; j++ {
		rowj := nl.Data[j*m : j*m+j]
		s := row[j] - dot4(last[:j], rowj)
		last[j] = s / nl.Data[j*m+j]
	}
	d := diag - dot4(last, last)
	if d <= 0 || math.IsNaN(d) {
		return nil, ErrNotPositiveDefinite
	}
	nl.Data[n*m+n] = math.Sqrt(d)
	return &Cholesky{L: nl}, nil
}

// SolveLowerInto solves the triangular system L·y = b into the preallocated
// dst (forward substitution only). The GP grid search uses it to get the
// quadratic form yᵀA⁻¹y = ‖L⁻¹y‖² without the backward half of a full solve.
// dst and b may alias.
func (c *Cholesky) SolveLowerInto(dst, b []float64) {
	n := c.L.R
	ld := c.L.Data
	for i := 0; i < n; i++ {
		s := b[i] - dot4(ld[i*n:i*n+i], dst[:i])
		dst[i] = s / ld[i*n+i]
	}
}

// SolveVecInto solves A·x = b into the preallocated dst, allocating nothing.
// dst and b may alias.
func (c *Cholesky) SolveVecInto(dst, b []float64) {
	n := c.L.R
	ld := c.L.Data
	c.SolveLowerInto(dst, b)
	// Backward in place: Lᵀ·x = y. dst[i] still holds y[i] when read.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * dst[k]
		}
		dst[i] = s / ld[i*n+i]
	}
}

// LogDet returns log|A| = 2·Σ log L[i][i]. The diagonal entries are
// multiplied in chunks of 16 so one Log call covers 16 of them; GP factor
// diagonals sit in [1e-4, ~1e1], far from over/underflow at that chunk size.
func (c *Cholesky) LogDet() float64 {
	n := c.L.R
	ld := c.L.Data
	var s float64
	prod := 1.0
	count := 0
	for i := 0; i < n; i++ {
		prod *= ld[i*n+i]
		if count++; count == 16 {
			s += math.Log(prod)
			prod, count = 1.0, 0
		}
	}
	if prod != 1.0 {
		s += math.Log(prod)
	}
	return 2 * s
}

// CholeskyWithJitter factors a, adding exponentially growing jitter to the
// diagonal until the factorization succeeds (up to maxTries). It returns the
// factorization and the jitter that was needed.
func CholeskyWithJitter(a *Matrix, jitter float64, maxTries int) (*Cholesky, float64, error) {
	cur := a.Clone()
	added := 0.0
	for try := 0; try < maxTries; try++ {
		ch, err := NewCholesky(cur)
		if err == nil {
			return ch, added, nil
		}
		step := jitter * math.Pow(10, float64(try))
		cur.AddDiag(step)
		added += step
	}
	return nil, added, ErrNotPositiveDefinite
}

// SolveNNLS solves min ‖X·β − y‖ subject to β ≥ 0 using projected
// coordinate descent. Ernest-style scale-out models require non-negative
// coefficients so each cost term contributes physically plausible time.
func SolveNNLS(x *Matrix, y []float64, iters int) []float64 {
	n, d := x.R, x.C
	beta := make([]float64, d)
	// Precompute column norms and Xᵀy.
	colSq := make([]float64, d)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			v := x.At(i, j)
			colSq[j] += v * v
		}
	}
	resid := make([]float64, n)
	copy(resid, y)
	for it := 0; it < iters; it++ {
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			// Partial residual including current beta_j contribution.
			var g float64
			for i := 0; i < n; i++ {
				g += x.At(i, j) * resid[i]
			}
			nb := beta[j] + g/colSq[j]
			if nb < 0 {
				nb = 0
			}
			delta := nb - beta[j]
			if delta != 0 {
				for i := 0; i < n; i++ {
					resid[i] -= delta * x.At(i, j)
				}
				beta[j] = nb
			}
		}
	}
	return beta
}
