// Package opt provides the two derivative-free minimizers over the unit
// hypercube that the tuners use: recursive random search, which searches both
// real systems (RRS, SARD's refinement) and cheap surrogates (cost models,
// simulators, the neural network), and Nelder–Mead, which polishes the start
// points of a GP acquisition round.
package opt

import (
	"math"
	"math/rand"
)

// Func is an objective over [0,1]^d, minimized.
type Func func(x []float64) float64

// Best tracks an incumbent point and value.
type Best struct {
	X []float64
	F float64
}

func newBest(d int) Best { return Best{X: make([]float64, d), F: math.Inf(1)} }

func (b *Best) consider(x []float64, f float64) bool {
	if f < b.F {
		b.F = f
		copy(b.X, x)
		return true
	}
	return false
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// RecursiveRandomSearch implements the explore/exploit scheme of Ye & Kalyanaraman:
// explore with uniform samples, then repeatedly restart a shrinking local
// search box around the incumbent. budget is the total number of evaluations.
func RecursiveRandomSearch(f Func, d, budget int, rng *rand.Rand) Best {
	best := newBest(d)
	if budget <= 0 {
		return best
	}
	explore := budget / 3
	if explore < 1 {
		explore = 1
	}
	x := make([]float64, d)
	for i := 0; i < explore; i++ {
		for j := range x {
			x[j] = rng.Float64()
		}
		best.consider(x, f(x))
	}
	remaining := budget - explore
	radius := 0.25
	const shrink = 0.6
	fails := 0
	for remaining > 0 {
		for j := range x {
			lo := clamp01(best.X[j] - radius)
			hi := clamp01(best.X[j] + radius)
			x[j] = lo + rng.Float64()*(hi-lo)
		}
		remaining--
		if best.consider(x, f(x)) {
			fails = 0
		} else {
			fails++
			if fails >= 2*d+4 {
				radius *= shrink
				fails = 0
				if radius < 0.01 {
					radius = 0.25 // re-explore from a fresh region
					for j := range x {
						x[j] = rng.Float64()
					}
					if remaining > 0 {
						remaining--
						best.consider(x, f(x))
					}
				}
			}
		}
	}
	return best
}

// mirror01 folds a coordinate back into [0,1] by reflection, which keeps a
// Nelder–Mead simplex from collapsing flat against the box boundary the way
// plain clamping does.
func mirror01(v float64) float64 {
	for v < 0 || v > 1 {
		if v < 0 {
			v = -v
		}
		if v > 1 {
			v = 2 - v
		}
	}
	return v
}

// NelderMead runs the downhill simplex method from a start point, reflecting
// off the cube boundary. maxIter bounds function evaluations approximately.
func NelderMead(f Func, start []float64, scale float64, maxIter int) Best {
	d := len(start)
	best := newBest(d)
	type vert struct {
		x []float64
		f float64
	}
	simplex := make([]vert, d+1)
	for i := range simplex {
		x := append([]float64(nil), start...)
		if i > 0 {
			// Step inward when the outward step would leave the cube, so
			// the initial simplex never degenerates.
			if x[i-1]+scale <= 1 {
				x[i-1] += scale
			} else {
				x[i-1] -= scale
			}
			x[i-1] = mirror01(x[i-1])
		}
		simplex[i] = vert{x, f(x)}
		best.consider(x, simplex[i].f)
	}
	evals := d + 1
	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
	for evals < maxIter {
		// Order.
		for i := 1; i < len(simplex); i++ {
			for j := i; j > 0 && simplex[j].f < simplex[j-1].f; j-- {
				simplex[j], simplex[j-1] = simplex[j-1], simplex[j]
			}
		}
		lo, hi := simplex[0], simplex[d]
		if hi.f-lo.f < 1e-12 {
			break
		}
		// Centroid of all but worst.
		cen := make([]float64, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				cen[j] += simplex[i].x[j]
			}
		}
		for j := range cen {
			cen[j] /= float64(d)
		}
		reflect := make([]float64, d)
		for j := range reflect {
			reflect[j] = mirror01(cen[j] + alpha*(cen[j]-hi.x[j]))
		}
		fr := f(reflect)
		evals++
		best.consider(reflect, fr)
		switch {
		case fr < lo.f:
			expand := make([]float64, d)
			for j := range expand {
				expand[j] = mirror01(cen[j] + gamma*(reflect[j]-cen[j]))
			}
			fe := f(expand)
			evals++
			best.consider(expand, fe)
			if fe < fr {
				simplex[d] = vert{expand, fe}
			} else {
				simplex[d] = vert{reflect, fr}
			}
		case fr < simplex[d-1].f:
			simplex[d] = vert{reflect, fr}
		default:
			contract := make([]float64, d)
			for j := range contract {
				contract[j] = mirror01(cen[j] + rho*(hi.x[j]-cen[j]))
			}
			fc := f(contract)
			evals++
			best.consider(contract, fc)
			if fc < hi.f {
				simplex[d] = vert{contract, fc}
			} else {
				for i := 1; i <= d; i++ {
					for j := 0; j < d; j++ {
						simplex[i].x[j] = mirror01(lo.x[j] + sigma*(simplex[i].x[j]-lo.x[j]))
					}
					simplex[i].f = f(simplex[i].x)
					evals++
					best.consider(simplex[i].x, simplex[i].f)
				}
			}
		}
	}
	return best
}
