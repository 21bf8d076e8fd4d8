// Package sample provides the experimental designs used by experiment-driven
// tuners: Latin hypercube samples for space-filling initialization (iTuned),
// Plackett–Burman two-level screening designs with foldover (SARD), and
// plain grid designs as baselines.
package sample

import (
	"math/rand"
)

// LatinHypercube returns n points in [0,1]^d where each dimension is
// stratified into n equal bins with exactly one point per bin — the
// initialization design iTuned's Adaptive Sampling starts from.
func LatinHypercube(n, d int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	perm := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < n; i++ {
			out[i][j] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return out
}

// Grid returns the full factorial grid with k levels per dimension, i.e.
// k^d points with coordinates at bin centers. Callers should keep k^d small.
func Grid(k, d int) [][]float64 {
	total := 1
	for i := 0; i < d; i++ {
		total *= k
	}
	out := make([][]float64, total)
	for idx := 0; idx < total; idx++ {
		p := make([]float64, d)
		rem := idx
		for j := 0; j < d; j++ {
			lvl := rem % k
			rem /= k
			p[j] = (float64(lvl) + 0.5) / float64(k)
		}
		out[idx] = p
	}
	return out
}

// pb12 is the classic Plackett–Burman generating row for 12 runs
// (11 factors), +1/−1 encoded as true/false.
var pb12 = []bool{true, true, false, true, true, true, false, false, false, true, false}

// pb20 is the Plackett–Burman generating row for 20 runs (19 factors).
var pb20 = []bool{true, true, false, false, true, true, true, true, false, true, false, true, false, false, false, false, true, true, false}

// PlackettBurman returns a two-level screening design for k factors encoded
// as ±1. It uses the classic PB generators for 12 and 20 runs and falls back
// to a Sylvester–Hadamard construction for other sizes, giving n runs where
// n is the smallest admissible design size ≥ k+1. Each returned row has
// length k; the design matrix has orthogonal columns, so main effects can be
// estimated independently with n ≪ 2^k runs.
func PlackettBurman(k int) [][]int {
	switch {
	case k <= 0:
		return nil
	case k <= 11 && k > 7:
		return cyclicDesign(pb12, k)
	case k <= 19 && k > 15:
		return cyclicDesign(pb20, k)
	default:
		return hadamardDesign(k)
	}
}

// cyclicDesign builds a PB design from a generating row: rows are cyclic
// shifts of the generator plus a final all-−1 row.
func cyclicDesign(gen []bool, k int) [][]int {
	n := len(gen) + 1
	out := make([][]int, n)
	for i := 0; i < n-1; i++ {
		row := make([]int, k)
		for j := 0; j < k; j++ {
			v := gen[(j+i)%len(gen)]
			if v {
				row[j] = 1
			} else {
				row[j] = -1
			}
		}
		out[i] = row
	}
	last := make([]int, k)
	for j := range last {
		last[j] = -1
	}
	out[n-1] = last
	return out
}

// hadamardDesign builds a screening design from the Sylvester Hadamard
// matrix of the smallest power-of-two order > k, dropping the constant
// first column.
func hadamardDesign(k int) [][]int {
	order := 2
	for order-1 < k {
		order *= 2
	}
	h := [][]int{{1}}
	for len(h) < order {
		n := len(h)
		next := make([][]int, 2*n)
		for i := range next {
			next[i] = make([]int, 2*n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := h[i][j]
				next[i][j] = v
				next[i][j+n] = v
				next[i+n][j] = v
				next[i+n][j+n] = -v
			}
		}
		h = next
	}
	out := make([][]int, order)
	for i := 0; i < order; i++ {
		row := make([]int, k)
		copy(row, h[i][1:k+1])
		out[i] = row
	}
	return out
}

// Foldover returns the design plus its sign-flipped mirror. Folding a PB
// design over cancels confounding of main effects with two-factor
// interactions, which SARD relies on for trustworthy rankings.
func Foldover(design [][]int) [][]int {
	out := make([][]int, 0, 2*len(design))
	out = append(out, design...)
	for _, row := range design {
		neg := make([]int, len(row))
		for j, v := range row {
			neg[j] = -v
		}
		out = append(out, neg)
	}
	return out
}

// LevelsToPoint converts a ±1 design row into a unit-cube point, mapping −1
// to lo and +1 to hi (typically 0.15 and 0.85 to stay off the cube edges).
func LevelsToPoint(row []int, lo, hi float64) []float64 {
	p := make([]float64, len(row))
	for j, v := range row {
		if v > 0 {
			p[j] = hi
		} else {
			p[j] = lo
		}
	}
	return p
}
