package ml

import (
	"context"

	"repro/internal/tune"
)

// NeuralTuner reproduces the Rodd & Kulkarni adaptive neural tuner: an MLP
// learns the configuration → runtime surface from observations; each step
// searches the surrogate for its predicted minimum, evaluates it for real,
// and retrains. An ε-greedy random trial keeps the surrogate from collapsing
// onto its own blind spots.
type NeuralTuner struct {
	Seed int64
	// Hidden is the hidden layer width (default 24).
	Hidden int
	// Epsilon is the random-exploration probability (default 0.2).
	Epsilon float64
	// InitObs seeds the surrogate (default 2·dim, at least 6).
	InitObs int
}

// NewNeuralTuner returns a neural tuner with defaults.
func NewNeuralTuner(seed int64) *NeuralTuner {
	return &NeuralTuner{Seed: seed, Hidden: 24, Epsilon: 0.2}
}

// Name implements tune.Tuner.
func (t *NeuralTuner) Name() string { return "ml/neural" }

// Tune implements tune.Tuner via the generic ask/tell adapter.
func (t *NeuralTuner) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	return tune.DriveTuner(ctx, t, target, b)
}

var _ tune.Tuner = (*NeuralTuner)(nil)
