package linalg

import "testing"

// ForceKernel runs the rest of the test with the assembly kernels on or off,
// restoring the detected choice afterwards, so both paths are exercised on
// one host. It skips the test on a CPU without AVX2. Tests that use it must
// not run in parallel.
func ForceKernel(t testing.TB, on bool) {
	t.Helper()
	if !detectAVX2() {
		t.Skip("no AVX2 on this host: only the Go loops exist here")
	}
	prev := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = prev })
}
