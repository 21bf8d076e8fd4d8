package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernel contract (DESIGN.md §9): the assembly kernels return the bits
// the Go loops return. Every test here computes a value on both paths by
// assigning the selector, which ForceKernel restores when the test ends.

// sameFloat is bit equality, except that any NaN equals any NaN: the
// contract promises the same NaN-ness, not the same payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(a, b []float64) int {
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// nastyValue draws from the values a summation order can be told apart by:
// mixed magnitudes (so low bits are lost in one order and kept in another),
// both zeros, and denormals.
func nastyValue(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(r.Int63n(1 << 52)))
	case 3:
		return -math.Float64frombits(uint64(r.Int63n(1 << 52)))
	case 4:
		return r.NormFloat64() * 1e150
	case 5:
		return r.NormFloat64() * 1e-150
	case 6:
		return r.NormFloat64() * 1e-300
	default:
		return r.NormFloat64()
	}
}

func fill(xs []float64, draw func() float64) {
	for i := range xs {
		xs[i] = draw()
	}
}

// dot4Both returns dot4(a, b) from the Go loop and from the kernel. The
// kernel is called directly so that rows shorter than kernelMinLen, which
// dot4 never sends it, are held to the contract too.
func dot4Both(a, b []float64) (ref, kern float64) {
	useAVX2 = false
	ref = dot4(a, b)
	useAVX2 = true
	if len(a) == 0 {
		var none [1]float64
		return ref, dot4AVX2(&none[0], &none[0], 0)
	}
	if len(a) >= kernelMinLen {
		if via := dot4(a, b); !sameFloat(via, dot4AVX2(&a[0], &b[0], len(a))) {
			panic("dot4 did not dispatch to the kernel")
		}
	}
	return ref, dot4AVX2(&a[0], &b[0], len(a))
}

func TestDot4KernelMatchesGoLoop(t *testing.T) {
	ForceKernel(t, true)
	const maxLen = 300
	r := rand.New(rand.NewSource(17))
	bufA, bufB := make([]float64, maxLen+4), make([]float64, maxLen+4)
	draws := map[string]func() float64{
		"normal": r.NormFloat64,
		"nasty":  func() float64 { return nastyValue(r) },
		"naninf": func() float64 {
			switch r.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1 - 2*r.Intn(2))
			}
			return nastyValue(r)
		},
	}
	for _, name := range []string{"normal", "nasty", "naninf"} {
		for n := 0; n <= maxLen; n++ {
			fill(bufA, draws[name])
			fill(bufB, draws[name])
			// Offsets 0…3 put the first element at every position of a
			// 32-byte vector; the kernel's loads are unaligned by design.
			for offA := 0; offA < 4; offA++ {
				for offB := 0; offB < 4; offB++ {
					a, b := bufA[offA:offA+n], bufB[offB:offB+n]
					if ref, kern := dot4Both(a, b); !sameFloat(ref, kern) {
						t.Fatalf("%s n=%d offsets %d,%d: Go loop %x (%g), kernel %x (%g)",
							name, n, offA, offB, math.Float64bits(ref), ref, math.Float64bits(kern), kern)
					}
				}
			}
		}
	}
}

func TestDot4KernelMatchesGoLoopRace3(t *testing.T) { TestDot4KernelMatchesGoLoop(t) }

// columnStepBoth computes column j of an n×n l for rows i0 … n-1 by the
// scalar definition and by the fused kernel (whole groups of four, then
// dot4 row by row — what CholeskyInto does) and returns the two columns.
func columnStepBoth(l, a []float64, n, j, i0 int, d float64) (ref, kern []float64) {
	rowj := l[j*n : j*n+j]
	useAVX2 = false
	for i := i0; i < n; i++ {
		ref = append(ref, (a[i*n+j]-dot4(l[i*n:i*n+j], rowj))/d)
	}
	useAVX2 = true
	lk := append([]float64(nil), l...)
	i := i0
	if groups := (n - i) / 4; groups > 0 {
		cholColumnAVX2(&lk[0], &a[0], n, j, i, groups, d)
		i += 4 * groups
	}
	for ; i < n; i++ {
		lk[i*n+j] = (a[i*n+j] - dot4AVX2(&lk[i*n], &lk[j*n], j)) / d
	}
	for i := i0; i < n; i++ {
		kern = append(kern, lk[i*n+j])
	}
	return ref, kern
}

// The fused step is only reached from CholeskyInto with j ≥ kernelMinLen and
// the well-scaled entries of a factor in progress; here it meets every j,
// every row count modulo four, and values a real factor never holds.
func TestCholColumnKernelMatchesGoLoop(t *testing.T) {
	ForceKernel(t, true)
	r := rand.New(rand.NewSource(19))
	for _, n := range []int{5, 6, 7, 8, 13, 24, 37} {
		l, a := make([]float64, n*n), make([]float64, n*n)
		for j := 0; j < n-1; j++ {
			for i0 := j + 1; i0 < n; i0++ {
				fill(l, func() float64 { return nastyValue(r) })
				fill(a, func() float64 { return nastyValue(r) })
				d := math.Abs(r.NormFloat64()) + 1e-3
				ref, kern := columnStepBoth(l, a, n, j, i0, d)
				if at := sameFloats(ref, kern); at >= 0 {
					t.Fatalf("n=%d j=%d rows %d…: row %d: Go loop %x, kernel %x",
						n, j, i0, i0+at, math.Float64bits(ref[at]), math.Float64bits(kern[at]))
				}
			}
		}
	}
}

func TestCholColumnKernelMatchesGoLoopRace3(t *testing.T) { TestCholColumnKernelMatchesGoLoop(t) }

// choleskyBoth factors a on both paths into workspaces holding the same
// stale contents, so a failure at the same column leaves the same matrix.
func choleskyBoth(a *Matrix) (ref, kern *Matrix, errRef, errKern error) {
	n := a.R
	ref, kern = New(n, n), New(n, n)
	for i := range ref.Data {
		ref.Data[i], kern.Data[i] = 99, 99
	}
	useAVX2 = false
	errRef = CholeskyInto(a, ref)
	useAVX2 = true
	errKern = CholeskyInto(a, kern)
	return ref, kern, errRef, errKern
}

// What assertCholeskyBothAgree expects of the Go loop's factorization, beyond
// the kernel path agreeing with it.
const (
	mayFail = iota
	mustPass
	mustFail
)

func assertCholeskyBothAgree(t *testing.T, label string, a *Matrix, expect int) {
	t.Helper()
	ref, kern, errRef, errKern := choleskyBoth(a)
	if !errors.Is(errKern, errRef) { // also when exactly one of them is nil
		t.Fatalf("%s n=%d: Go loop error %v, kernel error %v", label, a.R, errRef, errKern)
	}
	if expect == mustFail && errRef == nil {
		t.Fatalf("%s n=%d: factorization was meant to fail", label, a.R)
	}
	if expect == mustPass && errRef != nil {
		t.Fatalf("%s n=%d: %v", label, a.R, errRef)
	}
	// Equal contents after a failure mean it was reported at the same column.
	if at := sameFloats(ref.Data, kern.Data); at >= 0 {
		t.Fatalf("%s n=%d: L[%d][%d]: Go loop %x, kernel %x", label, a.R, at/a.R, at%a.R,
			math.Float64bits(ref.Data[at]), math.Float64bits(kern.Data[at]))
	}
}

func TestCholeskyIntoKernelMatchesGoLoop(t *testing.T) {
	ForceKernel(t, true)
	r := rand.New(rand.NewSource(23))
	sizes := []int{63, 64, 65, 160, 255}
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		spd := randSPD(n, r)
		assertCholeskyBothAgree(t, "spd", spd, mustPass)
		if n < 2 {
			continue
		}
		// Not quite positive definite: a Gram matrix of rank n-1, whose last
		// pivot is rounding noise of either sign.
		g := New(n, n-1)
		fill(g.Data, r.NormFloat64)
		assertCholeskyBothAgree(t, "rank-deficient", g.Mul(g.T()), mayFail)
		// Indefinite from column k on, and poisoned at one entry.
		for _, k := range []int{0, n / 2, n - 1} {
			bad := spd.Clone()
			bad.Set(k, k, -bad.At(k, k))
			assertCholeskyBothAgree(t, fmt.Sprintf("negative pivot %d", k), bad, mustFail)
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				bad = spd.Clone()
				bad.Set(n-1, k, v)
				bad.Set(k, n-1, v)
				assertCholeskyBothAgree(t, fmt.Sprintf("%v at [%d][%d]", v, n-1, k), bad, mayFail)
			}
		}
	}
}

func TestCholeskyIntoKernelMatchesGoLoopRace3(t *testing.T) { TestCholeskyIntoKernelMatchesGoLoop(t) }

// A full solve: the forward half in blocks of four rows, the backward half
// scalar; one check at sizes around kernelMinLen and each n mod 4.
func TestSolveKernelMatchesGoLoop(t *testing.T) {
	ForceKernel(t, true)
	r := rand.New(rand.NewSource(29))
	for _, n := range []int{7, 8, 9, 64, 161} {
		ch, err := NewCholesky(randSPD(n, r))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		fill(b, r.NormFloat64)
		useAVX2 = false
		ref := ch.SolveVec(b)
		useAVX2 = true
		if at := sameFloats(ref, ch.SolveVec(b)); at >= 0 {
			t.Fatalf("n=%d: SolveVec differs at %d", n, at)
		}
	}
}

func TestSolveKernelMatchesGoLoopRace3(t *testing.T) { TestSolveKernelMatchesGoLoop(t) }

// solveLowerDef is SolveLowerInto's definition, row by row: y[i] =
// (b[i] − dot4(L[i,:i], y[:i]))/L[i][i], dot4 as its Go loop.
func solveLowerDef(l *Matrix, b []float64) []float64 {
	n := l.R
	y := make([]float64, n)
	for i := range y {
		row := l.Data[i*n : i*n+i]
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+4 <= i; k += 4 {
			s0 += row[k] * y[k]
			s1 += row[k+1] * y[k+1]
			s2 += row[k+2] * y[k+2]
			s3 += row[k+3] * y[k+3]
		}
		for ; k < i; k++ {
			s0 += row[k] * y[k]
		}
		y[i] = (b[i] - ((s0 + s1) + (s2 + s3))) / l.Data[i*n+i]
	}
	return y
}

// checkSolveLower holds SolveLowerInto on the selected path to its
// definition, into a separate dst and into b itself (SolveVecInto solves in
// place).
func checkSolveLower(t testing.TB, label string, l *Matrix, b []float64) {
	t.Helper()
	want := solveLowerDef(l, b)
	ch := &Cholesky{L: l}
	got := make([]float64, l.R)
	ch.SolveLowerInto(got, b)
	if at := sameFloats(want, got); at >= 0 {
		t.Fatalf("%s n=%d kernel=%s: y[%d] = %x, definition %x", label, l.R, Kernel(), at,
			math.Float64bits(got[at]), math.Float64bits(want[at]))
	}
	inPlace := append([]float64(nil), b...)
	ch.SolveLowerInto(inPlace, inPlace)
	if at := sameFloats(want, inPlace); at >= 0 {
		t.Fatalf("%s n=%d kernel=%s in place: y[%d] = %x, definition %x", label, l.R, Kernel(), at,
			math.Float64bits(inPlace[at]), math.Float64bits(want[at]))
	}
}

// Every n from 0 to 300 — each n mod 4, and the rows under kernelMinLen the
// blocked path also takes — on the leading blocks of a real factor, where
// the sums are the size of b and a reordered add shows in y, and on
// arbitrary lower triangles holding ±0, denormals, NaN and ±Inf, with the
// selector forced each way.
func TestSolveLowerKernelMatchesGoLoop(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", on), func(t *testing.T) {
			ForceKernel(t, on)
			const maxN = 300
			r := rand.New(rand.NewSource(37))
			factor, err := NewCholesky(randSPD(maxN, r))
			if err != nil {
				t.Fatal(err)
			}
			buf, b := make([]float64, maxN*maxN), make([]float64, maxN)
			draws := map[string]func() float64{
				"factor": r.NormFloat64,
				"nasty":  func() float64 { return nastyValue(r) },
				"naninf": func() float64 {
					switch r.Intn(200) {
					case 0:
						return math.NaN()
					case 1:
						return math.Inf(1 - 2*r.Intn(2))
					}
					return nastyValue(r)
				},
			}
			for _, name := range []string{"factor", "nasty", "naninf"} {
				fill(buf, draws[name])
				fill(b, draws[name])
				for n := 0; n <= maxN; n++ {
					l := &Matrix{R: n, C: n, Data: buf[:n*n]}
					if name == "factor" { // the leading n×n block of a factor is one
						l = New(n, n)
						for i := 0; i < n; i++ {
							copy(l.Data[i*n:i*n+i+1], factor.L.Data[i*maxN:i*maxN+i+1])
						}
					}
					checkSolveLower(t, name, l, b[:n])
				}
			}
		})
	}
}

func TestSolveLowerKernelMatchesGoLoopRace3(t *testing.T) { TestSolveLowerKernelMatchesGoLoop(t) }

// BenchmarkSolveLower is one forward substitution at the sizes a GP tuner
// predicts at: the sparse tier's m = 64 and the exact tier's last n = 160.
func BenchmarkSolveLower(b *testing.B) {
	for _, n := range []int{64, 160} {
		ch, err := NewCholesky(benchSPD(n))
		if err != nil {
			b.Fatal(err)
		}
		rhs, y := make([]float64, n), make([]float64, n)
		fill(rhs, rand.New(rand.NewSource(5)).NormFloat64)
		for _, on := range []bool{true, false} {
			b.Run(fmt.Sprintf("n=%d/%s", n, kernelLabel(on)), func(b *testing.B) {
				ForceKernel(b, on)
				for b.Loop() {
					ch.SolveLowerInto(y, rhs)
				}
			})
		}
	}
}

// kernelLabel names a benchmark's path.
func kernelLabel(on bool) string {
	if on {
		return "kernel"
	}
	return "loop"
}

func TestKernelName(t *testing.T) {
	ForceKernel(t, true)
	if got := Kernel(); got != "avx2" {
		t.Errorf("Kernel() = %q with the kernels on", got)
	}
	useAVX2 = false
	if got := Kernel(); got != "generic" {
		t.Errorf("Kernel() = %q with the kernels off", got)
	}
}

// FuzzKernels reads the input as float64s and holds the kernels to the
// contract on them: all of them as exponents, as squared distances and
// exponentials of the Matérn passes, and as a column-major copy of rows to
// measure distances to; the two halves as a dot product at a data-dependent
// alignment; and the largest square that fits as a matrix to factor, a
// half-finished factor to take one column step on, and a lower triangle to
// solve against; four rotations of the input as lanes to factor and solve.
func FuzzKernels(f *testing.F) {
	seed := func(xs ...float64) {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b)
	}
	seed()
	seed(1, 2)
	seed(1e308, 1e308, -1e308, 1e308, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	seed(math.NaN(), 1, 2, math.Inf(1), 0, math.Copysign(0, -1), 5e-324, -5e-324, 3, 4)
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{9, 12, 14} {
		seed(randSPD(n, r).Data...)
		nasty := make([]float64, n*n+3)
		fill(nasty, func() float64 { return nastyValue(r) })
		seed(nasty...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ForceKernel(t, true)
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		got := make([]float64, len(xs))
		ExpInto(got, xs)
		for i, x := range xs {
			if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
				t.Fatalf("ExpInto[%d] of %d: exp(%v) = %x, math.Exp %x", i, len(xs), x, math.Float64bits(got[i]), math.Float64bits(math.Exp(x)))
			}
		}
		if len(xs) > 0 {
			e := make([]float64, len(xs))
			for i, x := range xs {
				e[len(xs)-1-i] = x
			}
			checkMatern(t, "fuzz", xs, e, xs[0], xs[len(xs)-1])
		}
		if d := 1 + len(data)%5; len(xs) > d {
			p, cols := xs[:d], xs[d:]
			stride := len(cols) / d
			n := max(stride-len(data)%3, 0)
			rows := make([]float64, n*d)
			for i := 0; i < n; i++ {
				for k := 0; k < d; k++ {
					rows[i*d+k] = cols[k*stride+i]
				}
			}
			checkSqDistsCols(t, "fuzz", rows, cols, stride, 0, n, p)
		}
		half := len(xs) / 2
		off := len(data) % 4
		if off > half {
			off = half
		}
		a, b := xs[off:half], xs[half+off:2*half]
		if ref, kern := dot4Both(a, b); !sameFloat(ref, kern) {
			t.Fatalf("dot4 n=%d off=%d: Go loop %x, kernel %x", len(a), off, math.Float64bits(ref), math.Float64bits(kern))
		}
		n := int(math.Sqrt(float64(len(xs))))
		if n < 2 {
			return
		}
		m := &Matrix{R: n, C: n, Data: xs[:n*n]}
		ref, kern, errRef, errKern := choleskyBoth(m)
		if (errRef == nil) != (errKern == nil) {
			t.Fatalf("CholeskyInto n=%d: Go loop error %v, kernel error %v", n, errRef, errKern)
		}
		if at := sameFloats(ref.Data, kern.Data); at >= 0 {
			t.Fatalf("CholeskyInto n=%d differs at flat index %d", n, at)
		}
		j := n / 2
		d := xs[len(xs)-1]
		cref, ckern := columnStepBoth(m.Data, m.Data, n, j, j+1, d)
		if at := sameFloats(cref, ckern); at >= 0 {
			t.Fatalf("column step n=%d j=%d differs at row %d", n, j, j+1+at)
		}
		checkSolveLower(t, "fuzz", m, xs[len(xs)-n:])
		fuzzLanes(t, xs)
	})
}
