package linalg

import "math"

// ExpInto sets dst[i] = math.Exp(src[i]) for every element of src, bit for
// bit; dst may be src, and must not otherwise overlap it. It panics if dst is
// shorter than src. On amd64 with the kernels on, whole quads run four lanes
// of math.Exp's own instruction sequence; a quad holding a value outside
// [-708, 708] or a NaN, and the tail, call math.Exp.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if useAVX2 {
		for quads := len(src) &^ 3; i < quads; {
			if i += expAVX2(&dst[i], &src[i], quads-i); i < quads {
				for end := i + 4; i < end; i++ {
					dst[i] = math.Exp(src[i])
				}
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
