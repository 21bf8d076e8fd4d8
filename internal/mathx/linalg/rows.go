package linalg

import "math"

// The loops below are the two passes of a GP kernel row that do not go
// through ExpInto: squared distances from a point to stored rows, and the
// Matérn 5/2 arithmetic around the exponential. Like dot4 they are the
// specification; on amd64 with the kernels on, the assembly in
// kernel_amd64.s runs them a lane per row or element, and the tail of fewer
// than four takes the loop.

// SqDistsCols sets dst[i] = Σ_k (cols[k·stride+i] − p[k])² for every i <
// len(dst), k = 0 … len(p)−1: the squared distances from p to the rows of a
// column-major copy, whose column k starts at cols[k·stride]. Each distance
// starts at +0 and adds (c − p[k])·(c − p[k]) in ascending k, the one-row
// loop's order, so it has the bits of that loop over the row-major row.
func SqDistsCols(dst, cols []float64, stride int, p []float64) {
	n, d := len(dst), len(p)
	if n > 0 && d > 0 {
		_ = cols[(d-1)*stride+n-1] // every load below is in bounds
	}
	i := 0
	if useAVX2 && n >= 4 && d > 0 {
		i = n &^ 3
		sqDistsColsAVX2(&dst[0], &cols[0], stride, i, &p[0], d)
	}
	for ; i+4 <= n; i += 4 {
		var s0, s1, s2, s3 float64
		at := i // of element k of the four rows
		for _, v := range p {
			c := cols[at : at+4 : at+4]
			d0, d1, d2, d3 := c[0]-v, c[1]-v, c[2]-v, c[3]-v
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
			at += stride
		}
		out := dst[i : i+4 : i+4]
		out[0], out[1], out[2], out[3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		var s float64
		for k, v := range p {
			diff := cols[k*stride+i] - v
			s += diff * diff
		}
		dst[i] = s
	}
}

// sqrt5 is the Matérn 5/2 constant √5.
var sqrt5 = math.Sqrt(5)

// MaternArgInto turns the squared distances in r into r[i] = √r[i]/l, the
// Matérn 5/2 kernel's scaled distance, and sets arg[i] = −(√5·r[i]), the
// argument of its exponential. arg must be as long as r.
func MaternArgInto(r, arg []float64, l float64) {
	arg = arg[:len(r)]
	i := 0
	if useAVX2 {
		i = len(r) &^ 3
		if i > 0 {
			maternArgAVX2(&r[0], &arg[0], i, l, sqrt5)
		}
	}
	for ; i < len(r); i++ {
		v := math.Sqrt(r[i]) / l
		r[i] = v
		arg[i] = -(sqrt5 * v)
	}
}

// MaternScaleInto overwrites the scaled distances in k with
// sv·((1 + √5·r + 5·r·r/3)·e[i]), r = k[i]: the Matérn 5/2 kernel at signal
// variance sv, given e[i] = exp(−√5·r). e must be as long as k.
func MaternScaleInto(k, e []float64, sv float64) {
	e = e[:len(k)]
	i := 0
	if useAVX2 {
		i = len(k) &^ 3
		if i > 0 {
			maternScaleAVX2(&k[0], &e[0], i, sv, sqrt5)
		}
	}
	for ; i < len(k); i++ {
		r := k[i]
		s5 := sqrt5 * r
		k[i] = sv * ((1 + s5 + 5*r*r/3) * e[i])
	}
}
