//go:build !amd64

package linalg

// No assembly kernels on this GOARCH: the Go loops in cholesky.go, exp.go
// and rows.go are the only path, and the compiler drops every branch on
// useAVX2.
const useAVX2 = false

func dot4AVX2(a, b *float64, n int) float64 { panic("linalg: no kernel on this GOARCH") }

func cholColumnAVX2(l, a *float64, n, j, i, groups int, d float64) {
	panic("linalg: no kernel on this GOARCH")
}

func expAVX2(dst, src *float64, n int) int { panic("linalg: no kernel on this GOARCH") }

func solveLower4AVX2(acc *[16]float64, l *float64, stride int, x *float64, n int) {
	panic("linalg: no kernel on this GOARCH")
}

func choleskyLanesAVX2(l, a *float64, n int) int { panic("linalg: no kernel on this GOARCH") }

func solveLowerLanesAVX2(dst, l, b *float64, n int) {
	panic("linalg: no kernel on this GOARCH")
}

func scaleLanesAVX2(dst, src *float64, n int, s *[Lanes]float64) {
	panic("linalg: no kernel on this GOARCH")
}

func sqDistsColsAVX2(dst, cols *float64, stride, n int, p *float64, d int) {
	panic("linalg: no kernel on this GOARCH")
}

func maternArgAVX2(r, arg *float64, n int, l, sqrt5 float64) {
	panic("linalg: no kernel on this GOARCH")
}

func maternScaleAVX2(k, e *float64, n int, sv, sqrt5 float64) {
	panic("linalg: no kernel on this GOARCH")
}
