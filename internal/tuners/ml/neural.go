package ml

// NeuralTuner reproduces the Rodd & Kulkarni adaptive neural tuner: an MLP
// learns the configuration → runtime surface from observations; each step
// searches the surrogate for its predicted minimum, evaluates it for real,
// and retrains. An ε-greedy random trial keeps the surrogate from collapsing
// onto its own blind spots.
type NeuralTuner struct {
	Seed int64
}

const (
	// neuralHidden is the width of the MLP's two hidden layers.
	neuralHidden = 24
	// neuralEpsilon is the random-exploration probability.
	neuralEpsilon = 0.2
)

// NewNeuralTuner returns a neural tuner.
func NewNeuralTuner(seed int64) *NeuralTuner { return &NeuralTuner{Seed: seed} }

// Name implements tune.Tuner.
func (t *NeuralTuner) Name() string { return "ml/neural" }
