package linalg

import (
	"math/rand"
	"strconv"
	"testing"
)

func TestParallelCholeskyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 64, 127, 128, 129, 200, 300} {
		a := randSPD(n, rng)
		ls := New(n, n)
		if err := CholeskyInto(a, ls); err != nil {
			t.Fatalf("n=%d serial: %v", n, err)
		}
		lp := New(n, n)
		if err := ParallelCholeskyInto(a, lp, 4); err != nil {
			t.Fatalf("n=%d parallel: %v", n, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s, p := ls.Data[i*n+j], lp.Data[i*n+j]
				if !almostEq(s, p, 1e-8*(1+absf(s))) {
					t.Fatalf("n=%d L[%d][%d]: serial %v parallel %v", n, i, j, s, p)
				}
			}
			for j := i + 1; j < n; j++ {
				if lp.Data[i*n+j] != 0 {
					t.Fatalf("n=%d upper triangle not zeroed at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestParallelCholeskyBitIdenticalAcrossWorkers pins the determinism
// contract: the blocked factorization's bits must not depend on the worker
// count (1, 2, 3, 8), only on the input and the fixed block size.
func TestParallelCholeskyBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{128, 193, 256, 321} {
		a := randSPD(n, rng)
		ref := New(n, n)
		if err := ParallelCholeskyInto(a, ref, 1); err != nil {
			t.Fatalf("n=%d workers=1: %v", n, err)
		}
		for _, w := range []int{2, 3, 8} {
			l := New(n, n)
			if err := ParallelCholeskyInto(a, l, w); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			for i := range l.Data {
				if l.Data[i] != ref.Data[i] {
					t.Fatalf("n=%d workers=%d: bit drift at flat index %d: %v vs %v",
						n, w, i, l.Data[i], ref.Data[i])
				}
			}
		}
	}
}

func TestParallelCholeskyRejectsIndefinite(t *testing.T) {
	n := 150
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] = -1
	}
	l := New(n, n)
	if err := ParallelCholeskyInto(a, l, 4); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestRank1UpdateMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{3, 17, 60} {
		a := randSPD(n, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		// Updated matrix A + v·vᵀ, factored from scratch as the reference.
		up := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				up.Data[i*n+j] += v[i] * v[j]
			}
		}
		want, err := NewCholesky(up)
		if err != nil {
			t.Fatal(err)
		}
		ch.Rank1Update(append([]float64(nil), v...))
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				g, w := ch.L.Data[i*n+j], want.L.Data[i*n+j]
				if !almostEq(g, w, 1e-8*(1+absf(w))) {
					t.Fatalf("n=%d L[%d][%d]: update %v refactor %v", n, i, j, g, w)
				}
			}
		}
	}
}

func TestRank1UpdatePanicsOnLengthMismatch(t *testing.T) {
	ch, err := NewCholesky(FromRows([][]float64{{4, 2}, {2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	ch.Rank1Update([]float64{1})
}

// benchSPD returns a diagonally dominant (so positive definite) n×n matrix.
func benchSPD(n int) *Matrix {
	a := New(n, n)
	rnd := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rnd.Float64() - 0.5
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Add(i, i, float64(n))
	}
	return a
}

// BenchmarkCholeskyInto times the serial factorization at the sizes a tuning
// session factors at: n = 12 and 24 are small fits whose rows mostly stay
// under kernelMinLen (the guard that the kernels cost them nothing), 64 is
// the sparse tier's inducing subset, 160 the largest exact fit.
func BenchmarkCholeskyInto(b *testing.B) {
	for _, n := range []int{12, 24, 64, 160} {
		a, l := benchSPD(n), New(n, n)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := CholeskyInto(a, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockedCholesky compares the serial right-looking factorization
// against the blocked parallel one at sizes above parallelMinDim. On a
// single-CPU host the parallel path measures its scheduling overhead.
func BenchmarkBlockedCholesky(b *testing.B) {
	for _, n := range []int{256, 512} {
		a, l := benchSPD(n), New(n, n)
		b.Run("serial/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := CholeskyInto(a, l); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("parallel/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ParallelCholeskyInto(a, l, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
