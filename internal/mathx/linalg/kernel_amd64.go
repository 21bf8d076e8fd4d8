package linalg

// useAVX2 selects the assembly kernels in kernel_amd64.s over the Go loops
// in cholesky.go. It is decided once, here; only tests assign it again, to
// run both paths on one host.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
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

// dot4AVX2 is dot4 over n elements, bit for bit.
//
//go:noescape
func dot4AVX2(a, b *float64, n int) float64

// cholColumnAVX2 is column j of CholeskyInto for rows i … i+4·groups-1 of
// the n×n row-major l and a, bit for bit; d is the column's diagonal L[j][j].
//
//go:noescape
func cholColumnAVX2(l, a *float64, n, j, i, groups int, d float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
