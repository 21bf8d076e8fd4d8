package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sqDistRowLoop is the one-row loop SqDistsCols is defined by: the squared
// distance from p to the row-major row.
func sqDistRowLoop(row, p []float64) float64 {
	var s float64
	for k, v := range p {
		diff := row[k] - v
		s += diff * diff
	}
	return s
}

// colsOf lays the n rows of the row-major rows, d wide, out column-major at
// the given stride.
func colsOf(rows []float64, n, d, stride int) []float64 {
	cols := make([]float64, (d-1)*stride+n)
	for i := 0; i < n; i++ {
		for k := 0; k < d; k++ {
			cols[k*stride+i] = rows[i*d+k]
		}
	}
	return cols
}

// checkSqDistsCols holds SqDistsCols on the selected path to the one-row loop
// for rows off … off+n−1 of a copy with a column stride larger than n.
func checkSqDistsCols(t testing.TB, label string, rows, cols []float64, stride, off, n int, p []float64) {
	t.Helper()
	d := len(p)
	got := make([]float64, n)
	SqDistsCols(got, cols[off:], stride, p)
	for i, v := range got {
		if want := sqDistRowLoop(rows[(off+i)*d:(off+i+1)*d], p); !sameFloat(v, want) {
			t.Fatalf("%s d=%d n=%d off=%d kernel=%s: distance %d is %x, one-row loop %x",
				label, d, n, off, Kernel(), i, math.Float64bits(v), math.Float64bits(want))
		}
	}
}

// Every d from 1 to 40 and n from 0 to 300, starting at every row offset
// mod 4, on unit-cube rows and on values with ±0, denormals, NaN and ±Inf,
// with the selector forced each way.
func TestSqDistsColsKernelMatchesRowLoop(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", on), func(t *testing.T) {
			ForceKernel(t, on)
			const maxN = 300
			const stride = maxN + 7
			r := rand.New(rand.NewSource(41))
			draws := map[string]func() float64{
				"unit": r.Float64,
				"naninf": func() float64 {
					switch r.Intn(300) {
					case 0:
						return math.NaN()
					case 1:
						return math.Inf(1 - 2*r.Intn(2))
					}
					return nastyValue(r)
				},
			}
			for _, name := range []string{"unit", "naninf"} {
				for d := 1; d <= 40; d++ {
					rows, p := make([]float64, (maxN+3)*d), make([]float64, d)
					fill(rows, draws[name])
					fill(p, draws[name])
					cols := colsOf(rows, maxN+3, d, stride)
					for n := 0; n <= maxN; n++ {
						checkSqDistsCols(t, name, rows, cols, stride, n%4, n, p)
					}
				}
			}
		})
	}
}

func TestSqDistsColsKernelMatchesRowLoopRace3(t *testing.T) { TestSqDistsColsKernelMatchesRowLoop(t) }

// maternArgDef and maternScaleDef are the Go expressions of gp's kernel row
// around its exponential, one element at a time.
func maternArgDef(d2, l float64) (r, arg float64) {
	r = math.Sqrt(d2) / l
	return r, -(sqrt5 * r)
}

func maternScaleDef(r, e, sv float64) float64 {
	s5 := sqrt5 * r
	return sv * ((1 + s5 + 5*r*r/3) * e)
}

// checkMatern holds MaternArgInto and MaternScaleInto on the selected path to
// the Go expressions on the squared distances d2 and exponentials e.
func checkMatern(t testing.TB, label string, d2, e []float64, l, sv float64) {
	t.Helper()
	r, arg := append([]float64(nil), d2...), make([]float64, len(d2))
	MaternArgInto(r, arg, l)
	k := append([]float64(nil), r...)
	MaternScaleInto(k, e, sv)
	for i := range d2 {
		wantR, wantArg := maternArgDef(d2[i], l)
		if !sameFloat(r[i], wantR) || !sameFloat(arg[i], wantArg) {
			t.Fatalf("%s n=%d kernel=%s: MaternArgInto[%d] of %v = (%x, %x), Go (%x, %x)", label, len(d2), Kernel(), i, d2[i],
				math.Float64bits(r[i]), math.Float64bits(arg[i]), math.Float64bits(wantR), math.Float64bits(wantArg))
		}
		if want := maternScaleDef(r[i], e[i], sv); !sameFloat(k[i], want) {
			t.Fatalf("%s n=%d kernel=%s: MaternScaleInto[%d] of (%v, %v) = %x, Go %x", label, len(d2), Kernel(), i, r[i], e[i],
				math.Float64bits(k[i]), math.Float64bits(want))
		}
	}
}

// Every length from 0 to 300 at every offset mod 4, on the distances and
// exponentials of a GP row and on ±0, denormals, negative distances, NaN and
// ±Inf, with the selector forced each way.
func TestMaternKernelsMatchGoLoop(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", on), func(t *testing.T) {
			ForceKernel(t, on)
			const maxN = 300
			r := rand.New(rand.NewSource(43))
			draws := map[string]func() float64{
				"gp": func() float64 { return 4 * r.Float64() },
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
			d2, e := make([]float64, maxN+3), make([]float64, maxN+3)
			for _, name := range []string{"gp", "naninf"} {
				for n := 0; n <= maxN; n++ {
					fill(d2, draws[name])
					fill(e, r.Float64)
					l, sv := 0.05+r.Float64(), 0.5+r.Float64()
					if name == "naninf" {
						l, sv = nastyValue(r), nastyValue(r)
						fill(e, draws[name])
					}
					off := n % 4
					checkMatern(t, name, d2[off:off+n], e[off:off+n], l, sv)
				}
			}
		})
	}
}

func TestMaternKernelsMatchGoLoopRace3(t *testing.T) { TestMaternKernelsMatchGoLoop(t) }

// BenchmarkSqDists is the distances of one kernel row at the sizes a GP
// tuner predicts at — the sparse tier's m = 64 inducing rows and the exact
// tier's last n = 160 — over d = 16 inputs.
func BenchmarkSqDists(b *testing.B) {
	const d = 16
	r := rand.New(rand.NewSource(47))
	for _, n := range []int{64, 160} {
		rows, p := make([]float64, n*d), make([]float64, d)
		fill(rows, r.Float64)
		fill(p, r.Float64)
		cols, dst := colsOf(rows, n, d, n), make([]float64, n)
		for _, on := range []bool{true, false} {
			b.Run(fmt.Sprintf("n=%d/d=%d/%s", n, d, kernelLabel(on)), func(b *testing.B) {
				ForceKernel(b, on)
				for b.Loop() {
					SqDistsCols(dst, cols, n, p)
				}
			})
		}
	}
}
