package linalg

import "testing"

// ForceKernel runs the rest of the test with the assembly kernels on or off,
// restoring the detected choice afterwards, so both paths are exercised on
// one host. It skips the test where the kernels cannot run and, when on is
// set, where the exp kernel would not return math.Exp's bits (math.Exp on
// its SSE path). Tests that use it must not run in parallel.
func ForceKernel(t testing.TB, on bool) {
	t.Helper()
	if !detectAVX2() {
		t.Skip("no AVX2 and FMA on this host: only the Go loops exist here")
	}
	if on && !expKernelMatches() {
		t.Skip("math.Exp does not take its FMA path here: the kernels stay off")
	}
	prev := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = prev })
}
