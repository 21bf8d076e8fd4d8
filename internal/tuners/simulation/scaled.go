package simulation

import (
	"math"

	"repro/internal/tune"
)

// ScaledProxy is the second classic simulation-based methodology: search a
// scaled-down replica of the system (smaller input, noise-free simulation —
// an MRSim/MRPerf-style stand-in) and carry the winning configurations to
// the full-scale system for verification. Proxy executions are simulations,
// so they cost no trial budget; only the verification runs do. The
// methodology inherits the category's weakness — effects that only appear at
// scale (extra task waves, shuffle saturation, memory pressure) are
// invisible at proxy scale.
type ScaledProxy struct {
	// Proxy is the scaled-down replica sharing the target's space.
	Proxy tune.Target
	Seed  int64
}

const (
	// proxySearchBudget is the number of proxy evaluations.
	proxySearchBudget = 400
	// proxyVerify is how many top proxy candidates to verify at full scale.
	proxyVerify = 3
)

// NewScaledProxy returns a scaled-proxy tuner over the given replica.
func NewScaledProxy(proxy tune.Target, seed int64) *ScaledProxy {
	return &ScaledProxy{Proxy: proxy, Seed: seed}
}

// Name implements tune.Tuner.
func (t *ScaledProxy) Name() string { return "simulation/scaled-proxy" }

func distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}
