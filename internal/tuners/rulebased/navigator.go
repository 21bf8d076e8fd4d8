package rulebased

import (
	"context"

	"repro/internal/tune"
)

// Navigator reproduces the configuration-navigation idea of Xu et al.
// ("Hey, you have given me too many knobs!"): most parameters should never
// be touched; rank them by declared impact, expose only the top few, and
// walk those one at a time over a handful of candidate values. It is still
// rule-based — the ranking comes from documentation, not measurement — but
// unlike a pure rulebook it spends a small trial budget confirming choices.
type Navigator struct {
	// TopK is how many parameters to navigate (default 5).
	TopK int
	// Levels is how many candidate values to try per parameter (default 4).
	Levels int
}

// NewNavigator returns a Navigator with default settings.
func NewNavigator() *Navigator { return &Navigator{TopK: 5, Levels: 4} }

// Name implements tune.Tuner.
func (n *Navigator) Name() string { return "rules/navigator" }

// Tune implements tune.Tuner via the generic ask/tell adapter: one-at-a-
// time sweeps over the highest-impact parameters, keeping each parameter's
// best value before moving on.
func (n *Navigator) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	return tune.DriveTuner(ctx, n, target, b)
}

var (
	_ tune.Tuner = (*Navigator)(nil)
	_ tune.Tuner = (*Tuner)(nil)
)
