//go:build !amd64

package linalg

// No assembly kernels on this GOARCH: the Go loops in cholesky.go are the
// only path, and the compiler drops every branch on useAVX2.
const useAVX2 = false

func dot4AVX2(a, b *float64, n int) float64 { panic("linalg: no kernel on this GOARCH") }

func cholColumnAVX2(l, a *float64, n, j, i, groups int, d float64) {
	panic("linalg: no kernel on this GOARCH")
}
