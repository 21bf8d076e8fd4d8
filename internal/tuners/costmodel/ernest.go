package costmodel

import "math"

// Ernest reproduces the NSDI'16 scale-out predictor: runtime as a function
// of the machine (executor) count m is modeled as
//
//	T(m) = θ₀ + θ₁·(1/m) + θ₂·log(m) + θ₃·m
//
// with θ ≥ 0 fit by non-negative least squares on a handful of training
// runs at small executor counts. The fitted curve then predicts the best
// executor count without running it. Ernest tunes scale, not the long tail
// of knobs — the comparison harness shows it complements rather than
// replaces knob tuners.
type Ernest struct{}

// ernestTrainPoints is how many executor counts Ernest samples.
const ernestTrainPoints = 5

// NewErnest returns an Ernest tuner.
func NewErnest() *Ernest { return &Ernest{} }

// Name implements tune.Tuner.
func (t *Ernest) Name() string { return "costmodel/ernest" }

// features returns Ernest's basis for a machine count.
func ernestFeatures(m float64) []float64 {
	return []float64{1, 1 / m, math.Log(m), m}
}
