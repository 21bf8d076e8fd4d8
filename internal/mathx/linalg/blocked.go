package linalg

import (
	"errors"
	"math"
	"runtime"
	"sync"
)

// This file holds a blocked, multi-core factorization that no model fit
// calls: every fit factors with the serial CholeskyInto on its caller's
// goroutine, which beats this path at the sizes a fit reaches. It stays as
// the benchmark's probe of a multi-core factorization.
//
// Determinism contract: for a fixed input and block size, the blocked
// factorization produces bit-identical output at every worker count,
// including 1. Each block of the output is computed entirely by one
// goroutine with a fixed intra-block arithmetic order, workers never share
// an accumulator (no reduction-order drift), and a barrier separates the
// dependency steps of each block column. How the disjoint blocks are dealt
// to workers is therefore invisible in the result. The blocked result is
// NOT bit-identical to the serial CholeskyInto — the trailing updates chunk
// the inner dot products differently.

// cholBlock is the blocked-Cholesky panel width. Changing it changes the
// floating-point grouping (and so the exact bits); it is a constant, not a
// knob, so recorded event streams stay reproducible across machines.
const cholBlock = 64

// parallelMinDim is the matrix dimension below which ParallelCholeskyInto
// falls back to the serial kernels: fan-out overhead beats the win.
const parallelMinDim = 128

// resolveWorkers maps the workers argument onto [1, GOMAXPROCS].
func resolveWorkers(workers int) int {
	max := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > max {
		return max
	}
	return workers
}

// parallelRanges splits [0, total) into one contiguous chunk per worker and
// runs fn on each concurrently. fn must write only to its own range.
func parallelRanges(total, workers int, fn func(lo, hi int)) {
	if total <= 0 {
		return
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		fn(0, total)
		return
	}
	var wg sync.WaitGroup
	chunk := (total + workers - 1) / workers
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelCholeskyInto factors a into the preallocated n×n matrix l using a
// right-looking blocked algorithm with the panel solves and trailing
// updates fanned across up to workers goroutines (0 = GOMAXPROCS). Only the
// lower triangle of a is read; the strict upper triangle of l is zeroed.
// The result is bit-identical at every worker count (see the file comment)
// but not bit-identical to the serial CholeskyInto. Matrices smaller than
// parallelMinDim are delegated to the serial kernel.
func ParallelCholeskyInto(a, l *Matrix, workers int) error {
	n := a.R
	if a.C != n || l.R != n || l.C != n {
		return errors.New("linalg: cholesky dimension mismatch")
	}
	if n < parallelMinDim {
		return CholeskyInto(a, l)
	}
	workers = resolveWorkers(workers)
	ad, ld := a.Data, l.Data
	// Seed l with a's lower triangle; the factorization is then in place.
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(ld[i*n:i*n+i+1], ad[i*n:i*n+i+1])
			for j := i + 1; j < n; j++ {
				ld[i*n+j] = 0
			}
		}
	})
	nb := (n + cholBlock - 1) / cholBlock
	for k := 0; k < nb; k++ {
		k0 := k * cholBlock
		k1 := k0 + cholBlock
		if k1 > n {
			k1 = n
		}
		// Step 1: factor the diagonal block in place (serial — it is the
		// critical path and only cholBlock wide).
		for j := k0; j < k1; j++ {
			rowj := ld[j*n+k0 : j*n+j]
			d := ld[j*n+j] - dot4(rowj, rowj)
			if d <= 0 || math.IsNaN(d) {
				return ErrNotPositiveDefinite
			}
			d = math.Sqrt(d)
			ld[j*n+j] = d
			for i := j + 1; i < k1; i++ {
				ld[i*n+j] = (ld[i*n+j] - dot4(ld[i*n+k0:i*n+j], rowj)) / d
			}
		}
		// Step 2: panel solve — every row below the diagonal block solves
		// against it independently (forward substitution within the panel).
		parallelRanges(n-k1, workers, func(lo, hi int) {
			for r := k1 + lo; r < k1+hi; r++ {
				row := ld[r*n:]
				for j := k0; j < k1; j++ {
					s := row[j] - dot4(row[k0:j], ld[j*n+k0:j*n+j])
					row[j] = s / ld[j*n+j]
				}
			}
		})
		// Step 3: trailing update — subtract the panel's outer product from
		// every remaining block pair. Each (bi, bj) block is owned by
		// exactly one task; tasks share only read-only panel data.
		rem := nb - k - 1
		if rem == 0 {
			continue
		}
		type pair struct{ i0, i1, j0, j1 int }
		pairs := make([]pair, 0, rem*(rem+1)/2)
		for bi := k + 1; bi < nb; bi++ {
			i0, i1 := bi*cholBlock, (bi+1)*cholBlock
			if i1 > n {
				i1 = n
			}
			for bj := k + 1; bj <= bi; bj++ {
				j0, j1 := bj*cholBlock, (bj+1)*cholBlock
				if j1 > n {
					j1 = n
				}
				pairs = append(pairs, pair{i0, i1, j0, j1})
			}
		}
		parallelRanges(len(pairs), workers, func(lo, hi int) {
			for _, p := range pairs[lo:hi] {
				for r := p.i0; r < p.i1; r++ {
					panelR := ld[r*n+k0 : r*n+k1]
					cEnd := p.j1
					if cEnd > r+1 {
						cEnd = r + 1 // diagonal blocks: lower triangle only
					}
					for c := p.j0; c < cEnd; c++ {
						ld[r*n+c] -= dot4(panelR, ld[c*n+k0:c*n+k1])
					}
				}
			}
		})
	}
	return nil
}

// Rank1Update rewrites the factor in place so that it factors A + v·vᵀ,
// given it factored A — the classic O(n²) Givens-based update (LINPACK
// dchud). v is consumed as scratch. The update of a positive-definite A by
// an outer product is always positive definite, so it cannot fail. It is
// what makes a surrogate Append O(m²)/O(D²): one new observation becomes a
// rank-1 update of the sparse-GP information matrix or the RFF Gram matrix
// instead of a refactorization.
func (c *Cholesky) Rank1Update(v []float64) {
	n := c.L.R
	if len(v) != n {
		panic("linalg: Rank1Update length mismatch")
	}
	ld := c.L.Data
	for j := 0; j < n; j++ {
		ljj := ld[j*n+j]
		vj := v[j]
		r := math.Sqrt(ljj*ljj + vj*vj)
		cth := r / ljj
		sth := vj / ljj
		ld[j*n+j] = r
		for i := j + 1; i < n; i++ {
			lij := (ld[i*n+j] + sth*v[i]) / cth
			v[i] = cth*v[i] - sth*lij
			ld[i*n+j] = lij
		}
	}
}
