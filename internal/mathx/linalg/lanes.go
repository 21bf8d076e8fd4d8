package linalg

import "math"

// Lanes is how many systems CholeskyLanes and SolveLowerLanes work on at
// once. Four systems of order n are interleaved element by element: entry
// (i, k) of lane c sits at (i·n+k)·Lanes + c, entry i of a lane vector at
// i·Lanes + c, so one 32-byte vector holds the same entry of every lane and
// each lane's arithmetic is a vertical vector operation.
const Lanes = 4

// CholeskyLanes factors the four interleaved n×n matrices a into l, which
// may be a, and returns a mask with bit c set when lane c is not positive
// definite. Every lane performs CholeskyInto's operations in CholeskyInto's
// order, so a lane whose bit is clear holds the factor CholeskyInto gives
// its matrix, bit for bit, strict upper triangle zeroed; a lane whose bit is
// set fails where CholeskyInto would and holds unspecified values. As in
// CholeskyInto, only the lower triangle of a is read.
func CholeskyLanes(a, l []float64, n int) (failed int) {
	if n == 0 {
		return 0
	}
	a, l = a[:Lanes*n*n], l[:Lanes*n*n] // bounds for the kernel
	if useAVX2 {
		return choleskyLanesAVX2(&l[0], &a[0], n)
	}
	var d [Lanes]float64
	for j := 0; j < n; j++ {
		rowj := l[Lanes*j*n:]
		for i := j; i < n; i++ {
			rowi, at := l[Lanes*i*n:], Lanes*(i*n+j)
			for c := range d {
				s := a[at+c] - dot4Lane(rowi, rowj, c, j)
				if i == j {
					if !(s > 0) {
						failed |= 1 << c
					}
					d[c] = math.Sqrt(s)
					l[at+c] = d[c]
				} else {
					l[at+c] = s / d[c]
				}
			}
		}
		clear(l[Lanes*(j*n+j+1) : Lanes*(j+1)*n])
	}
	return failed
}

// SolveLowerLanes solves the four interleaved triangular systems L·y = b,
// L from CholeskyLanes, into dst; dst and b may alias. Every lane performs
// SolveLowerInto's operations in its order, so each lane of dst is the
// vector SolveLowerInto gives that lane's system, bit for bit.
func SolveLowerLanes(dst, l, b []float64, n int) {
	if n == 0 {
		return
	}
	dst, l, b = dst[:Lanes*n], l[:Lanes*n*n], b[:Lanes*n]
	if useAVX2 {
		solveLowerLanesAVX2(&dst[0], &l[0], &b[0], n)
		return
	}
	for i := 0; i < n; i++ {
		rowi, at := l[Lanes*i*n:], Lanes*(i*n+i)
		for c := 0; c < Lanes; c++ {
			dst[Lanes*i+c] = (b[Lanes*i+c] - dot4Lane(rowi, dst, c, i)) / l[at+c]
		}
	}
}

// ScaleLanesInto sets lane c of the interleaved dst to s[c]·src:
// dst[Lanes·t+c] = s[c]·src[t] for every t < len(src). It packs one row of
// four scaled copies of a matrix for CholeskyLanes.
func ScaleLanesInto(dst, src []float64, s *[Lanes]float64) {
	if len(src) == 0 {
		return
	}
	dst = dst[:Lanes*len(src)]
	if useAVX2 {
		scaleLanesAVX2(&dst[0], &src[0], len(src), s)
		return
	}
	for t, v := range src {
		e := (*[Lanes]float64)(dst[Lanes*t:])
		e[0], e[1], e[2], e[3] = s[0]*v, s[1]*v, s[2]*v, s[3]*v
	}
}

// dot4Lane is dot4 of lane c's first m entries of the interleaved vectors a
// and b: the same four partial sums, tail and reduce.
func dot4Lane(a, b []float64, c, m int) float64 {
	a, b = a[c:c+Lanes*m], b[c:c+Lanes*m]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4*Lanes <= len(a); k += 4 * Lanes {
		s0 += a[k] * b[k]
		s1 += a[k+Lanes] * b[k+Lanes]
		s2 += a[k+2*Lanes] * b[k+2*Lanes]
		s3 += a[k+3*Lanes] * b[k+3*Lanes]
	}
	for ; k < len(a); k += Lanes {
		s0 += a[k] * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}
