package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Mul returns m·o. It panics on a dimension mismatch.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.C != o.R {
		panic(fmt.Sprintf("linalg: mul dimension mismatch %dx%d · %dx%d", m.R, m.C, o.R, o.C))
	}
	out := New(m.R, o.C)
	for i := 0; i < m.R; i++ {
		for k := 0; k < m.C; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.C; j++ {
				out.Add(i, j, a*o.At(k, j))
			}
		}
	}
	return out
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.C != len(v) {
		panic(fmt.Sprintf("linalg: mulvec dimension mismatch %dx%d · %d", m.R, m.C, len(v)))
	}
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		var s float64
		row := m.Data[i*m.C : (i+1)*m.C]
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

// SolveVec solves A·x = b given the factorization.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	x := make([]float64, len(b))
	c.SolveVecInto(x, b)
	return x
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	mt := m.T()
	if mt.At(0, 1) != 3 {
		t.Errorf("T().At(0,1) = %v", mt.At(0, 1))
	}
	prod := m.Mul(Identity(2))
	for i := range prod.Data {
		if prod.Data[i] != m.Data[i] {
			t.Fatal("M·I != M")
		}
	}
	v := m.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v", v)
	}
	clone := m.Clone()
	clone.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone must deep-copy")
	}
}

func TestMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	FromRows([][]float64{{1, 2}}).Mul(FromRows([][]float64{{1, 2}}))
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {1}})
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch.L.At(0, 0), 2, 1e-12) || !almostEq(ch.L.At(1, 0), 1, 1e-12) ||
		!almostEq(ch.L.At(1, 1), math.Sqrt(2), 1e-12) {
		t.Errorf("L = %+v", ch.L)
	}
	// Solve A x = b with known solution.
	x := ch.SolveVec([]float64{10, 8})
	// 4x+2y=10, 2x+3y=8 → x=7/4, y=3/2.
	if !almostEq(x[0], 1.75, 1e-9) || !almostEq(x[1], 1.5, 1e-9) {
		t.Errorf("solve = %v", x)
	}
	// log|A| = log(4·3−4) = log 8.
	if !almostEq(ch.LogDet(), math.Log(8), 1e-9) {
		t.Errorf("LogDet = %v, want %v", ch.LogDet(), math.Log(8))
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := NewCholesky(a); err == nil {
		t.Error("expected failure for indefinite matrix")
	}
	if _, err := NewCholesky(FromRows([][]float64{{1, 2, 3}})); err == nil {
		t.Error("expected failure for non-square matrix")
	}
}

// Property: for random SPD matrices A = BᵀB + I, the Cholesky factor
// reconstructs A.
func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed + rng.Int63()))
		n := 2 + r.Intn(5)
		b := New(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := b.T().Mul(b).AddDiag(1)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		recon := ch.L.Mul(ch.L.T())
		for i := range a.Data {
			if !almostEq(a.Data[i], recon.Data[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randSPD returns a random n×n SPD matrix A = BᵀB + I.
func randSPD(n int, r *rand.Rand) *Matrix {
	b := New(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	return b.T().Mul(b).AddDiag(1)
}

func TestCholeskyIntoMatchesNewCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 9
	l := New(n, n)
	for i := range l.Data {
		l.Data[i] = 99 // stale workspace contents must not leak through
	}
	a := randSPD(n, rng)
	if err := CholeskyInto(a, l); err != nil {
		t.Fatal(err)
	}
	want, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l.Data {
		if l.Data[i] != want.L.Data[i] {
			t.Fatalf("CholeskyInto differs at %d: %v vs %v", i, l.Data[i], want.L.Data[i])
		}
	}
	if err := CholeskyInto(a, New(n, n+1)); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestSolveVecIntoMatchesSolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSPD(7, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 7)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := ch.SolveVec(b)
	dst := make([]float64, 7)
	ch.SolveVecInto(dst, b)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SolveVecInto differs at %d", i)
		}
	}
	// Aliased dst and b must work too.
	alias := append([]float64(nil), b...)
	ch.SolveVecInto(alias, alias)
	for i := range want {
		if alias[i] != want[i] {
			t.Fatalf("aliased SolveVecInto differs at %d", i)
		}
	}
}

func TestCholeskyWithJitterRecovers(t *testing.T) {
	// Singular matrix: jitter should make it factorizable.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	l := New(2, 2)
	added, err := CholeskyWithJitter(a, l)
	if err != nil {
		t.Fatalf("jitter failed: %v", err)
	}
	if added <= 0 {
		t.Errorf("expected positive jitter, got %v", added)
	}
	if a.At(0, 0) != 1+added || a.At(1, 1) != 1+added {
		t.Errorf("the jitter must land on a's diagonal: %v", a.Data)
	}
	// l factors the jittered a.
	want, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.L.Data {
		if l.Data[i] != want.L.Data[i] {
			t.Fatalf("factor differs from the jittered matrix's at %d: %v vs %v", i, l.Data[i], want.L.Data[i])
		}
	}
}

// TestCholeskyWithJitterRefusesIndefinite: a matrix no jitter step rescues
// is refused once the schedule runs out.
func TestCholeskyWithJitterRefusesIndefinite(t *testing.T) {
	a := FromRows([][]float64{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}})
	added, err := CholeskyWithJitter(a, New(3, 3))
	if err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
	if added <= 0 {
		t.Fatalf("the schedule must have run: added %v", added)
	}
}

// TestCholeskyWithJitterDimensionMismatch: a wrongly sized l is a dimension
// error at once, with no jitter added to a.
func TestCholeskyWithJitterDimensionMismatch(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	before := a.Clone()
	added, err := CholeskyWithJitter(a, New(3, 3))
	if err == nil || err == ErrNotPositiveDefinite {
		t.Fatalf("expected the dimension error, got %v", err)
	}
	if added != 0 {
		t.Fatalf("added %v jitter before reporting the dimension error", added)
	}
	for i := range a.Data {
		if a.Data[i] != before.Data[i] {
			t.Fatalf("a edited at %d: %v vs %v", i, a.Data[i], before.Data[i])
		}
	}
}

func TestSolveNNLSNonNegative(t *testing.T) {
	// y = 5a + 0·b with b anti-correlated: the unconstrained solution would
	// push b negative; NNLS must clamp it.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range rows {
		a := rng.Float64()
		rows[i] = []float64{a, -a + 0.05*rng.Float64()}
		y[i] = 5 * a
	}
	beta := SolveNNLS(FromRows(rows), y, 400)
	for j, b := range beta {
		if b < 0 {
			t.Errorf("beta[%d] = %v < 0", j, b)
		}
	}
	if !almostEq(beta[0], 5, 0.5) {
		t.Errorf("beta[0] = %v, want ≈5", beta[0])
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("dot wrong")
	}
	if Dot([]float64{3, 4}, []float64{3, 4}) != 25 {
		t.Error("squared norm wrong")
	}
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	out := New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}
