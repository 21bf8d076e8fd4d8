package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The exp kernel's specification is math.Exp on this host. On amd64,
// math.Exp runs one of two instruction sequences of $GOROOT/src/math/
// exp_amd64.s: the FMA path where the CPU has AVX and FMA, the SSE path
// otherwise (and under GODEBUG=cpu.fma=off). expFMAPath and expSSEPath are
// the two in Go on |x| ≤ 708, where neither takes a denormal or overflow
// branch; math.FMA is the fused instruction's one rounding, and float64(…)
// keeps the compiler from fusing a product into the add after it.

const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expCoef is the Taylor series in the order the paths evaluate it.
var expCoef = [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}

// expScale is 2^k for the rounded exponent k, built as the paths build it.
func expScale(k float64) float64 { return math.Float64frombits(uint64(int64(k)+1023) << 52) }

func expFMAPath(x float64) float64 {
	k := math.RoundToEven(x * expLog2e)
	r := math.FMA(-k, expLn2L, math.FMA(-k, expLn2U, x)) * 0.0625
	p := expCoef[0]
	for _, c := range expCoef[1:] {
		p = math.FMA(p, r, c)
	}
	y := r * p
	for range 3 {
		y *= y + 2
	}
	return math.FMA(y+2, y, 1) * expScale(k)
}

func expSSEPath(x float64) float64 {
	k := math.RoundToEven(x * expLog2e)
	r := (float64(x-float64(k*expLn2U)) - float64(k*expLn2L)) * 0.0625
	p := expCoef[0]
	for _, c := range expCoef[1:] {
		p = float64(p*r) + c
	}
	y := r * p
	for range 4 {
		y *= y + 2
	}
	return (y + 1) * expScale(k)
}

// The probe must tell the two paths apart, and the selector must follow
// whichever one math.Exp takes here: the kernel is on exactly where math.Exp
// is the FMA path and the CPU can run the kernels.
func TestExpKernelFollowsMathExp(t *testing.T) {
	fma, sse := true, true
	for i, x := range expProbe {
		if i < 4 && expFMAPath(x) == expSSEPath(x) {
			t.Errorf("probe value %v does not tell the FMA and SSE paths apart", x)
		}
		fma = fma && math.Exp(x) == expFMAPath(x)
		sse = sse && math.Exp(x) == expSSEPath(x)
	}
	switch {
	case fma:
		if want := detectAVX2(); useAVX2 != want {
			t.Errorf("math.Exp takes its FMA path and the CPU has AVX2 = %v, but the kernels are on = %v", want, useAVX2)
		}
	case sse:
		if useAVX2 {
			t.Error("math.Exp takes its SSE path, but the kernels are on")
		}
	default:
		t.Fatal("math.Exp matches neither path of exp_amd64.s on the probe")
	}
	r := rand.New(rand.NewSource(5))
	for range 100000 {
		x := (r.Float64()*2 - 1) * 708
		if got := math.Exp(x); fma && got != expFMAPath(x) || sse && got != expSSEPath(x) {
			t.Fatalf("math.Exp(%v) = %x, off the path it took on the probe", x, math.Float64bits(got))
		}
	}
}

// expSpecials are the inputs at and around the edges of the kernel's range
// and of math.Exp's branches.
func expSpecials() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		-745.13, -745.1332191019412, -745.2, 709.78, 709.782712893384, 709.79,
		-708.5, -710, -720, -730, -740, -744.4, 5e-324, -5e-324, 1e-300, -1e-300}
	for _, edge := range []float64{708, -708} {
		xs = append(xs, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 2*edge))
	}
	return xs
}

// expInputs is n values at the given offset into a buffer whose every value
// draws from draw; the bytes around the window must not change.
func checkExpInto(t *testing.T, src []float64) {
	t.Helper()
	dst := make([]float64, len(src)+2)
	const guard = 12345.5
	dst[0], dst[len(dst)-1] = guard, guard
	ExpInto(dst[1:len(src)+1], src)
	if dst[0] != guard || dst[len(dst)-1] != guard {
		t.Fatalf("ExpInto over %d values wrote outside dst", len(src))
	}
	for i, x := range src {
		if got, want := dst[1+i], math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ExpInto[%d] of %d: exp(%v) = %x, math.Exp %x", i, len(src), x, math.Float64bits(got), math.Float64bits(want))
		}
	}
	// In place, as the GP kernel rows call it.
	inPlace := append([]float64(nil), src...)
	ExpInto(inPlace, inPlace)
	for i, x := range src {
		if math.Float64bits(inPlace[i]) != math.Float64bits(math.Exp(x)) {
			t.Fatalf("in-place ExpInto[%d] of %d: exp(%v) = %v", i, len(src), x, inPlace[i])
		}
	}
}

// ExpInto returns math.Exp's bits on the path this host selected and, where
// the kernel can run, on both paths forced.
func TestExpIntoMatchesMathExp(t *testing.T) {
	for _, path := range []struct {
		name  string
		force func(t *testing.T)
	}{
		{"detected", func(*testing.T) {}},
		{"kernel", func(t *testing.T) { ForceKernel(t, true) }},
		{"loop", func(t *testing.T) { ForceKernel(t, false) }},
	} {
		t.Run(path.name, func(t *testing.T) {
			path.force(t)
			r := rand.New(rand.NewSource(11))
			specials := expSpecials()
			draw := func() float64 {
				switch r.Intn(8) {
				case 0:
					return specials[r.Intn(len(specials))]
				case 1:
					return (r.Float64()*2 - 1) * 800
				default:
					return -30 * r.Float64()
				}
			}
			// Every length at every offset into the buffer.
			buf := make([]float64, 80)
			for n := 0; n <= 67; n++ {
				for off := 0; off+n <= len(buf) && off < 8; off++ {
					fill(buf, draw)
					checkExpInto(t, buf[off:off+n])
				}
			}
			// A raw-bit sweep: every exponent, signs and mantissas spread.
			var sweep []float64
			for e := uint64(0); e < 2048; e++ {
				for _, sign := range []uint64{0, 1 << 63} {
					mant := r.Uint64() & (1<<52 - 1)
					sweep = append(sweep, math.Float64frombits(sign|e<<52|mant))
				}
			}
			for range 1 << 16 {
				sweep = append(sweep, math.Float64frombits(r.Uint64()))
			}
			checkExpInto(t, sweep)
			// Each special alone and in every lane of an in-range quad.
			checkExpInto(t, specials)
			for _, x := range specials {
				for lane := range 4 {
					q := []float64{-1.5, -0.25, 2, -17}
					q[lane] = x
					checkExpInto(t, append(q, -3, -4, -5, -6))
					checkExpInto(t, append([]float64{-3, -4, -5, -6}, q...))
				}
			}
		})
	}
}

func TestExpIntoMatchesMathExpRace3(t *testing.T) { TestExpIntoMatchesMathExp(t) }

// BenchmarkExpInto is 64 kernel arguments of a GP row (-s5 of a Matérn row)
// through the kernel and through the math.Exp loop.
func BenchmarkExpInto(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	src := make([]float64, 64)
	fill(src, func() float64 { return -30 * r.Float64() })
	dst := make([]float64, len(src))
	for _, on := range []bool{true, false} {
		b.Run(kernelLabel(on), func(b *testing.B) {
			ForceKernel(b, on)
			for b.Loop() {
				ExpInto(dst, src)
			}
		})
	}
}
