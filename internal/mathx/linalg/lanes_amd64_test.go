package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The lane contract (DESIGN.md §9): lane c of CholeskyLanes and
// SolveLowerLanes is CholeskyInto and SolveLowerInto on system c, bit for
// bit, on the Go loop and on the kernel.

// interleave packs four equal-length slices into the lane layout.
func interleave(lanes [Lanes][]float64) []float64 {
	out := make([]float64, Lanes*len(lanes[0]))
	for c, xs := range lanes {
		for i, v := range xs {
			out[Lanes*i+c] = v
		}
	}
	return out
}

// laneOf unpacks lane c of the interleaved xs.
func laneOf(xs []float64, c int) []float64 {
	out := make([]float64, len(xs)/Lanes)
	for i := range out {
		out[i] = xs[Lanes*i+c]
	}
	return out
}

// checkCholeskyLanes factors the four matrices as lanes, into a separate
// workspace holding stale values and in place, and holds each lane to
// CholeskyInto on its matrix: the same failure, and for a lane that
// succeeds the same factor, strict upper triangle included.
func checkCholeskyLanes(t testing.TB, label string, ms [Lanes]*Matrix) {
	t.Helper()
	n := ms[0].R
	var datas [Lanes][]float64
	for c, m := range ms {
		datas[c] = m.Data
	}
	a := interleave(datas)
	l := make([]float64, len(a))
	for i := range l {
		l[i] = 99
	}
	inPlace := append([]float64(nil), a...)
	got := map[string][]float64{"separate": l, "in place": inPlace}
	masks := map[string]int{"separate": CholeskyLanes(a, l, n), "in place": CholeskyLanes(inPlace, inPlace, n)}
	for c, m := range ms {
		ref := New(n, n)
		err := CholeskyInto(m, ref)
		for _, how := range []string{"separate", "in place"} {
			if failed := masks[how]&(1<<c) != 0; failed != (err != nil) {
				t.Fatalf("%s n=%d lane %d %s (kernel %s): lane failed %v, CholeskyInto error %v",
					label, n, c, how, Kernel(), failed, err)
			}
			if err != nil {
				continue
			}
			if at := sameFloats(ref.Data, laneOf(got[how], c)); at >= 0 {
				t.Fatalf("%s n=%d lane %d %s (kernel %s): L[%d][%d] = %x, CholeskyInto %x",
					label, n, c, how, Kernel(), at/n, at%n,
					math.Float64bits(laneOf(got[how], c)[at]), math.Float64bits(ref.Data[at]))
			}
		}
	}
}

// laneMatrix is the kind of matrix lane c of size n gets in the Cholesky
// test: the kinds rotate with n, so every lane holds every kind and the
// failing lanes fail at different columns.
func laneMatrix(r *rand.Rand, n, c int) (*Matrix, string) {
	m := dominantSPD(n, r)
	if n < 2 {
		return m, "spd"
	}
	k := (n*(c+1)/5 + c) % n // a column that moves with the lane and with n
	switch (n + c) % 7 {
	case 1:
		m.Set(k, k, -m.At(k, k))
		return m, fmt.Sprintf("negative pivot %d", k)
	case 2:
		m.Set(n-1, k, math.NaN())
		return m, fmt.Sprintf("NaN at [%d][%d]", n-1, k)
	case 3:
		v := math.Inf(1 - 2*(n%2))
		m.Set(k, 0, v)
		return m, fmt.Sprintf("%v at [%d][0]", v, k)
	case 4:
		if n > 48 { // denormal arithmetic runs at a fraction of full speed
			break
		}
		for i := range m.Data {
			m.Data[i] *= 1e-310 // the factor's entries and products denormal
		}
		return m, "denormal"
	case 5:
		g := New(n, n-1)
		fill(g.Data, r.NormFloat64)
		return g.Mul(g.T()), "rank-deficient"
	case 6:
		fill(m.Data, func() float64 { return nastyValue(r) })
		return m, "nasty"
	}
	return m, "spd"
}

// dominantSPD is a symmetric matrix with normal off-diagonal entries and a
// diagonal past each row's absolute sum: positive definite, and built in
// O(n²) where randSPD's product costs O(n³).
func dominantSPD(n int, r *rand.Rand) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		s := 1 + r.Float64()
		for _, v := range m.Data[i*n : (i+1)*n] {
			s += math.Abs(v)
		}
		m.Set(i, i, s)
	}
	return m
}

// Every n from 0 to 130 — each n mod 4, and the orders under kernelMinLen
// CholeskyInto keeps on its Go loop — with the selector forced each way.
func TestCholeskyLanesMatchesCholeskyInto(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", on), func(t *testing.T) {
			ForceKernel(t, on)
			r := rand.New(rand.NewSource(41))
			for n := 0; n <= 130; n++ {
				var ms [Lanes]*Matrix
				var kinds [Lanes]string
				for c := range ms {
					ms[c], kinds[c] = laneMatrix(r, n, c)
				}
				checkCholeskyLanes(t, fmt.Sprint(kinds), ms)
			}
		})
	}
}

func TestCholeskyLanesMatchesCholeskyIntoRace3(t *testing.T) { TestCholeskyLanesMatchesCholeskyInto(t) }

// checkSolveLanes solves the four systems as lanes, into a separate dst and
// in place, and holds each lane to SolveLowerInto on its system.
func checkSolveLanes(t testing.TB, label string, ls [Lanes]*Matrix, bs [Lanes][]float64) {
	t.Helper()
	n := ls[0].R
	var datas [Lanes][]float64
	for c, m := range ls {
		datas[c] = m.Data
	}
	l, b := interleave(datas), interleave(bs)
	dst := make([]float64, len(b))
	SolveLowerLanes(dst, l, b, n)
	inPlace := append([]float64(nil), b...)
	SolveLowerLanes(inPlace, l, inPlace, n)
	for c, m := range ls {
		want := make([]float64, n)
		(&Cholesky{L: m}).SolveLowerInto(want, bs[c])
		for how, got := range map[string][]float64{"separate": dst, "in place": inPlace} {
			if at := sameFloats(want, laneOf(got, c)); at >= 0 {
				t.Fatalf("%s n=%d lane %d %s (kernel %s): y[%d] = %x, SolveLowerInto %x", label, n, c, how,
					Kernel(), at, math.Float64bits(laneOf(got, c)[at]), math.Float64bits(want[at]))
			}
		}
	}
}

// Every n from 0 to 130, on the leading blocks of real factors and on
// arbitrary lower triangles holding ±0, denormals, NaN and ±Inf, with the
// selector forced each way.
func TestSolveLanesMatchesSolveLower(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", on), func(t *testing.T) {
			ForceKernel(t, on)
			const maxN = 130
			r := rand.New(rand.NewSource(43))
			var factors [Lanes]*Cholesky
			for c := range factors {
				f, err := NewCholesky(randSPD(maxN, r))
				if err != nil {
					t.Fatal(err)
				}
				factors[c] = f
			}
			naninf := func() float64 {
				switch r.Intn(200) {
				case 0:
					return math.NaN()
				case 1:
					return math.Inf(1 - 2*r.Intn(2))
				}
				return nastyValue(r)
			}
			for n := 0; n <= maxN; n++ {
				var ls [Lanes]*Matrix
				var bs [Lanes][]float64
				for c := range ls {
					ls[c], bs[c] = New(n, n), make([]float64, n)
					switch (n + c) % 3 {
					case 0: // the leading n×n block of a factor is one
						for i := 0; i < n; i++ {
							copy(ls[c].Data[i*n:i*n+i+1], factors[c].L.Data[i*maxN:i*maxN+i+1])
						}
						fill(bs[c], r.NormFloat64)
					case 1:
						fill(ls[c].Data, func() float64 { return nastyValue(r) })
						fill(bs[c], func() float64 { return nastyValue(r) })
					default:
						fill(ls[c].Data, naninf)
						fill(bs[c], naninf)
					}
				}
				checkSolveLanes(t, "mixed", ls, bs)
			}
		})
	}
}

func TestSolveLanesMatchesSolveLowerRace3(t *testing.T) { TestSolveLanesMatchesSolveLower(t) }

// checkScaleLanes holds ScaleLanesInto on the selected path to its
// definition, the product s[c]·src[t] in each lane.
func checkScaleLanes(t testing.TB, label string, src []float64, s *[Lanes]float64) {
	t.Helper()
	dst := make([]float64, Lanes*len(src))
	ScaleLanesInto(dst, src, s)
	for i, v := range src {
		for c := range s {
			if want := s[c] * v; !sameFloat(dst[Lanes*i+c], want) {
				t.Fatalf("%s n=%d kernel=%s: lane %d of entry %d = %x, s[c]·src[t] %x", label, len(src), Kernel(),
					c, i, math.Float64bits(dst[Lanes*i+c]), math.Float64bits(want))
			}
		}
	}
}

func TestScaleLanesMatchesProducts(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", on), func(t *testing.T) {
			ForceKernel(t, on)
			r := rand.New(rand.NewSource(47))
			for n := 0; n <= 70; n++ {
				src := make([]float64, n)
				fill(src, func() float64 { return nastyValue(r) })
				var s [Lanes]float64
				fill(s[:], func() float64 { return nastyValue(r) })
				s[n%Lanes] = math.Inf(1 - 2*(n%2))
				checkScaleLanes(t, "nasty", src, &s)
			}
		})
	}
}

func TestScaleLanesMatchesProductsRace3(t *testing.T) { TestScaleLanesMatchesProducts(t) }

// fuzzLanes holds the lane functions to the contract on the fuzz input, on
// both paths: the four lanes are the largest square that fits, read from
// four rotations of xs, and the same squares serve as triangles to solve
// against; all of xs is scaled by its last four values.
func fuzzLanes(t *testing.T, xs []float64) {
	n := int(math.Sqrt(float64(len(xs))))
	var ms [Lanes]*Matrix
	var bs [Lanes][]float64
	for c := range ms {
		ms[c], bs[c] = New(n, n), make([]float64, n)
		for i := range ms[c].Data {
			ms[c].Data[i] = xs[(i+c*len(xs)/Lanes)%len(xs)]
		}
		for i := range bs[c] {
			bs[c][i] = xs[(i+c+len(xs)/2)%len(xs)]
		}
	}
	scale := (*[Lanes]float64)(xs[len(xs)-Lanes:])
	for _, on := range []bool{false, true} {
		useAVX2 = on
		checkCholeskyLanes(t, "fuzz", ms)
		checkSolveLanes(t, "fuzz", ms, bs)
		checkScaleLanes(t, "fuzz", xs, scale)
	}
}

// BenchmarkLanes compares one lane call on four systems of the orders the
// hyperparameter grid sees with the four single-system calls it replaces.
func BenchmarkLanes(b *testing.B) {
	for _, n := range []int{20, 64} {
		a := benchSPD(n)
		var datas [Lanes][]float64
		for c := range datas {
			datas[c] = a.Data
		}
		a4, l4 := interleave(datas), make([]float64, Lanes*n*n)
		l := New(n, n)
		if CholeskyLanes(a4, l4, n) != 0 || CholeskyInto(a, l) != nil {
			b.Fatal("benchmark matrix is not positive definite")
		}
		rhs := make([]float64, n)
		fill(rhs, rand.New(rand.NewSource(5)).NormFloat64)
		rhs4, y4, y := interleave([Lanes][]float64{rhs, rhs, rhs, rhs}), make([]float64, Lanes*n), make([]float64, n)
		ch := &Cholesky{L: l}
		name := "n=" + strconv.Itoa(n)
		b.Run("cholesky/"+name+"/lanes", func(b *testing.B) {
			for b.Loop() {
				CholeskyLanes(a4, l4, n)
			}
		})
		b.Run("cholesky/"+name+"/serial", func(b *testing.B) {
			for b.Loop() {
				for range Lanes {
					_ = CholeskyInto(a, l)
				}
			}
		})
		b.Run("solve/"+name+"/lanes", func(b *testing.B) {
			for b.Loop() {
				SolveLowerLanes(y4, l4, rhs4, n)
			}
		})
		b.Run("solve/"+name+"/serial", func(b *testing.B) {
			for b.Loop() {
				for range Lanes {
					ch.SolveLowerInto(y, rhs)
				}
			}
		})
	}
}
