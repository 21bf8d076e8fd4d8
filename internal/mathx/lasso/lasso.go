// Package lasso implements L1-regularized linear regression via cyclic
// coordinate descent, plus the regularization-path knob ranking OtterTune
// uses: parameters are ranked by the order in which their coefficients
// become nonzero as the penalty decreases.
package lasso

import (
	"math"
	"sort"

	"repro/internal/mathx/stat"
)

// Model holds a fitted lasso: coefficients in standardized-x units plus the
// scaling needed to predict on raw inputs.
type Model struct {
	Beta      []float64
	Intercept float64
	xMean     []float64
	xStd      []float64
}

// standardize returns column-standardized X and the scalers.
func standardize(x [][]float64) (xs [][]float64, mean, std []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil, nil
	}
	d := len(x[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	col := make([]float64, n)
	xs = make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			col[i] = x[i][j]
		}
		mean[j] = stat.Mean(col)
		std[j] = stat.Std(col)
		if std[j] < 1e-12 {
			std[j] = 1
		}
		for i := 0; i < n; i++ {
			xs[i][j] = (x[i][j] - mean[j]) / std[j]
		}
	}
	return xs, mean, std
}

func softThreshold(z, gamma float64) float64 {
	switch {
	case z > gamma:
		return z - gamma
	case z < -gamma:
		return z + gamma
	default:
		return 0
	}
}

// Fit solves min ½n⁻¹‖y − β₀ − Xβ‖² + λ‖β‖₁ by cyclic coordinate descent on
// standardized columns.
func Fit(x [][]float64, y []float64, lambda float64, iters int) *Model {
	n := len(x)
	if n == 0 {
		return &Model{}
	}
	d := len(x[0])
	xs, mean, std := standardize(x)
	yMean := stat.Mean(y)
	yc := make([]float64, n)
	for i := range y {
		yc[i] = y[i] - yMean
	}
	beta := make([]float64, d)
	resid := append([]float64(nil), yc...)
	colSq := make([]float64, d)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			colSq[j] += xs[i][j] * xs[i][j]
		}
		colSq[j] /= float64(n)
	}
	for it := 0; it < iters; it++ {
		maxDelta := 0.0
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			var rho float64
			for i := 0; i < n; i++ {
				rho += xs[i][j] * resid[i]
			}
			rho = rho/float64(n) + colSq[j]*beta[j]
			nb := softThreshold(rho, lambda) / colSq[j]
			delta := nb - beta[j]
			if delta != 0 {
				for i := 0; i < n; i++ {
					resid[i] -= delta * xs[i][j]
				}
				beta[j] = nb
				if math.Abs(delta) > maxDelta {
					maxDelta = math.Abs(delta)
				}
			}
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return &Model{Beta: beta, Intercept: yMean, xMean: mean, xStd: std}
}

// PathRank ranks features by sweeping λ from large to small and recording
// the order in which coefficients activate — OtterTune's knob-importance
// procedure. Features never activated rank last; ties (same activation step)
// break by |β| at the final λ. It returns feature indices, most important
// first.
func PathRank(x [][]float64, y []float64, steps int) []int {
	n := len(x)
	if n == 0 {
		return nil
	}
	d := len(x[0])
	// λmax: smallest λ with all-zero solution = max_j |x_jᵀ y| / n on
	// standardized data.
	xs, _, _ := standardize(x)
	yMean := stat.Mean(y)
	lamMax := 0.0
	for j := 0; j < d; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += xs[i][j] * (y[i] - yMean)
		}
		s = math.Abs(s) / float64(n)
		if s > lamMax {
			lamMax = s
		}
	}
	if lamMax == 0 {
		lamMax = 1
	}
	activation := make([]int, d)
	for j := range activation {
		activation[j] = steps + 1 // never activated
	}
	var finalBeta []float64
	for s := 0; s < steps; s++ {
		lam := lamMax * math.Pow(0.001, float64(s+1)/float64(steps))
		m := Fit(x, y, lam, 200)
		for j, b := range m.Beta {
			if b != 0 && activation[j] > s {
				activation[j] = s
			}
		}
		finalBeta = m.Beta
	}
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if activation[idx[a]] != activation[idx[b]] {
			return activation[idx[a]] < activation[idx[b]]
		}
		return math.Abs(finalBeta[idx[a]]) > math.Abs(finalBeta[idx[b]])
	})
	return idx
}
