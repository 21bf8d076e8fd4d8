package linalg

import "math"

// useAVX2 selects the assembly kernels in kernel_amd64.s over the Go loops
// in cholesky.go, exp.go and rows.go. It is decided once, here; only tests
// assign it again, to run both paths on one host.
var useAVX2 = detectAVX2() && expKernelMatches()

// detectAVX2 reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM registers across context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if lo, _ := xgetbv(); lo&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// expProbe is two quads of inputs on which the exp kernel must return
// math.Exp's bits before it is used. The first quad's values are ones where
// math.Exp's FMA and SSE paths round differently, so the kernel, which is
// the FMA path, steps aside wherever math.Exp runs the SSE one (a CPU
// without FMA, or GODEBUG=cpu.fma=off).
var expProbe = [8]float64{
	-0.8490924997766999, -7.24545265641458, -21.327215858999853, -14.93604340028106,
	0, -0.5, 3, -707.9,
}

// expKernelMatches reports whether expAVX2 returns math.Exp's bits on
// expProbe. Only a CPU that detectAVX2 accepts may run it.
func expKernelMatches() bool {
	var got [len(expProbe)]float64
	if expAVX2(&got[0], &expProbe[0], len(expProbe)) != len(expProbe) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expAVX2 sets dst[i] = math.Exp(src[i]) over the whole quads of n elements
// up to the first quad with a lane outside [-708, 708] or a NaN lane, and
// returns the number of elements it set.
//
//go:noescape
func expAVX2(dst, src *float64, n int) int

// dot4AVX2 is dot4 over n elements, bit for bit.
//
//go:noescape
func dot4AVX2(a, b *float64, n int) float64

// cholColumnAVX2 is column j of CholeskyInto for rows i … i+4·groups-1 of
// the n×n row-major l and a, bit for bit; d is the column's diagonal L[j][j].
//
//go:noescape
func cholColumnAVX2(l, a *float64, n, j, i, groups int, d float64)

// solveLower4AVX2 sets acc[4r+q] to lane q of dot4's accumulator for row r
// of the four rows at l, l+stride, l+2·stride, l+3·stride over their first n
// elements against x[:n]; n is a multiple of 4.
//
//go:noescape
func solveLower4AVX2(acc *[16]float64, l *float64, stride int, x *float64, n int)

// sqDistsColsAVX2 is SqDistsCols over the first n rows, n a multiple of 4,
// bit for bit.
//
//go:noescape
func sqDistsColsAVX2(dst, cols *float64, stride, n int, p *float64, d int)

// maternArgAVX2 is MaternArgInto's loop over the whole quads of n, bit for
// bit.
//
//go:noescape
func maternArgAVX2(r, arg *float64, n int, l, sqrt5 float64)

// maternScaleAVX2 is MaternScaleInto's loop over the whole quads of n, bit
// for bit.
//
//go:noescape
func maternScaleAVX2(k, e *float64, n int, sv, sqrt5 float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
