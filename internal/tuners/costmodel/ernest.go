package costmodel

import (
	"context"
	"math"

	"repro/internal/tune"
)

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
type Ernest struct {
	// TrainPoints is how many executor counts to sample (default 5).
	TrainPoints int
}

// NewErnest returns an Ernest tuner with defaults.
func NewErnest() *Ernest { return &Ernest{TrainPoints: 5} }

// Name implements tune.Tuner.
func (t *Ernest) Name() string { return "costmodel/ernest" }

// features returns Ernest's basis for a machine count.
func ernestFeatures(m float64) []float64 {
	return []float64{1, 1 / m, math.Log(m), m}
}

// Tune implements tune.Tuner via the generic ask/tell adapter.
func (t *Ernest) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	return tune.DriveTuner(ctx, t, target, b)
}

var _ tune.Tuner = (*Ernest)(nil)
