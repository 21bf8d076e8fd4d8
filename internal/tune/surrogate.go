package tune

import (
	"fmt"

	"repro/internal/mathx/gp"
)

// Surrogate tier names accepted by SurrogateConfig.Tier.
const (
	// SurrogateAuto switches exact → sparse → RFF by training-set size and
	// dimensionality (the default).
	SurrogateAuto = "auto"
	// SurrogateExact always fits the exact O(n³) GP.
	SurrogateExact = "exact"
	// SurrogateSparse always fits the inducing-point (FITC) GP.
	SurrogateSparse = "sparse"
	// SurrogateRFF always fits the random-Fourier-feature regressor.
	SurrogateRFF = "rff"
)

// rffDimAbove is the input dimensionality above which auto mode prefers RFF
// over the sparse GP: inducing-point coverage of a high-dimensional cube
// degrades (k-center needs exponentially many centers), while RFF cost is
// dimension-independent past the feature projection.
const rffDimAbove = 32

// SurrogateConfig selects the GP surrogate tier for the model-based tuners
// and carries the switch-over thresholds on specs and wire forms, so a
// session's tier schedule — and therefore its event stream — is a pure
// function of the spec at any parallelism. The zero value means auto with
// the default thresholds.
type SurrogateConfig struct {
	// Tier is one of "auto", "exact", "sparse", "rff" ("" = auto).
	Tier string `json:"tier,omitempty"`
	// SparseAbove is the training-set size beyond which auto mode leaves the
	// exact tier (default 160). Below it the exact path is byte-identical to
	// a build without any surrogate config.
	SparseAbove int `json:"sparse_above,omitempty"`
	// RFFAbove is the training-set size beyond which auto mode switches from
	// sparse to RFF (default 1500).
	RFFAbove int `json:"rff_above,omitempty"`
	// Inducing caps the sparse tier's inducing-point count m (default 64).
	Inducing int `json:"inducing,omitempty"`
	// Features is the RFF tier's random feature count D (default 128).
	Features int `json:"features,omitempty"`
}

// Validate rejects unknown tiers and non-sensical thresholds. A nil config
// is valid (auto everywhere).
func (c *SurrogateConfig) Validate() error {
	if c == nil {
		return nil
	}
	switch c.Tier {
	case "", SurrogateAuto, SurrogateExact, SurrogateSparse, SurrogateRFF:
	default:
		return fmt.Errorf("tune: unknown surrogate tier %q", c.Tier)
	}
	if c.SparseAbove < 0 || c.RFFAbove < 0 || c.Inducing < 0 || c.Features < 0 {
		return fmt.Errorf("tune: surrogate thresholds must be non-negative")
	}
	if c.SparseAbove > 0 && c.RFFAbove > 0 && c.RFFAbove < c.SparseAbove {
		return fmt.Errorf("tune: surrogate rff_above (%d) below sparse_above (%d)", c.RFFAbove, c.SparseAbove)
	}
	return nil
}

// withDefaults fills zero fields; nil maps to the all-default config.
func (c *SurrogateConfig) withDefaults() SurrogateConfig {
	out := SurrogateConfig{}
	if c != nil {
		out = *c
	}
	if out.Tier == "" {
		out.Tier = SurrogateAuto
	}
	if out.SparseAbove == 0 {
		out.SparseAbove = 160
	}
	if out.RFFAbove == 0 {
		out.RFFAbove = 1500
	}
	if out.Inducing == 0 {
		out.Inducing = 64
	}
	if out.Features == 0 {
		out.Features = 128
	}
	return out
}

// SurrogateSelector resolves which surrogate tier a model-based tuner fits
// at a given training-set size. It is pure arithmetic over the resolved
// config, so the tier schedule is deterministic for a fixed spec; the state
// of a session's model lives in SurrogateModel.
type SurrogateSelector struct {
	cfg SurrogateConfig
}

// NewSurrogateSelector builds a selector from cfg (nil = all defaults).
func NewSurrogateSelector(cfg *SurrogateConfig) *SurrogateSelector {
	return &SurrogateSelector{cfg: cfg.withDefaults()}
}

// Config returns the resolved (defaults-filled) configuration.
func (s *SurrogateSelector) Config() SurrogateConfig { return s.cfg }

// TierFor returns the tier a model over n observations of dimension d should
// use: the forced tier when one is configured, otherwise exact while
// n ≤ SparseAbove, RFF past RFFAbove observations or above rffDimAbove
// dimensions, and sparse in between.
func (s *SurrogateSelector) TierFor(n, d int) string {
	if s.cfg.Tier != SurrogateAuto {
		return s.cfg.Tier
	}
	if n <= s.cfg.SparseAbove {
		return SurrogateExact
	}
	if n > s.cfg.RFFAbove || d > rffDimAbove {
		return SurrogateRFF
	}
	return SurrogateSparse
}

// New constructs a fresh surrogate of the given tier. The seed feeds the RFF
// spectral sampler, so sessions differing only in seed explore different
// feature draws while staying individually deterministic. Exact-tier
// construction is exactly gp.New — the historical code path — which is what
// keeps below-threshold sessions byte-identical to builds without a
// surrogate config.
func (s *SurrogateSelector) New(kernel gp.KernelKind, tier string, seed int64) gp.Surrogate {
	switch tier {
	case SurrogateSparse:
		sp := gp.NewSparse(kernel)
		sp.MaxInducing = s.cfg.Inducing
		return sp
	case SurrogateRFF:
		return gp.NewRFF(kernel, s.cfg.Features, seed)
	default:
		return gp.New(kernel)
	}
}

// SurrogateModel owns a model-based proposer's surrogate across GP rounds:
// Sync brings it in step with the observed history, and is the one place that
// decides between re-fitting and absorbing. The exact tier is re-fitted every
// round — the historical path, bit for bit. A sparse or RFF model is rebuilt
// (subset re-selected, hyperparameters re-searched, full conditioning) only
// when there is none, the tier changed, an Append failed, or the observations
// appended since its last Fit have reached a quarter of the subset its
// hyperparameter search ran on; otherwise a round's observations are
// appended. The size at the last Fit is a pure function of the Sync sequence,
// which a resumed session replays, so parallelism and resume change nothing.
type SurrogateModel struct {
	sel    *SurrogateSelector
	kernel gp.KernelKind
	seed   int64

	model gp.Surrogate
	fitN  int // training-set size at the last Fit
}

// NewSurrogateModel returns the lifecycle of one session's surrogate under
// cfg (nil = all defaults); kernel and seed are what SurrogateSelector.New
// takes.
func NewSurrogateModel(cfg *SurrogateConfig, kernel gp.KernelKind, seed int64) *SurrogateModel {
	return &SurrogateModel{sel: NewSurrogateSelector(cfg), kernel: kernel, seed: seed}
}

// Model returns the surrogate of the last successful Sync (nil if none).
func (m *SurrogateModel) Model() gp.Surrogate { return m.model }

// Sync returns a surrogate conditioned on (xs, ys), or nil when none can be
// fitted. The history may only grow between calls. optimizeExact is the
// caller's rule for searching hyperparameters on the exact tier; the sparse
// and RFF tiers search on a subset — O(m³) — so they search at every Fit.
func (m *SurrogateModel) Sync(xs [][]float64, ys []float64, optimizeExact bool) gp.Surrogate {
	if len(xs) == 0 {
		return nil
	}
	tier := m.sel.TierFor(len(xs), len(xs[0]))
	if m.model != nil && tier == m.model.Tier() && tier != SurrogateExact &&
		m.model.TrainingSize()-m.fitN < m.sel.hyperSubset(tier)/4 && m.absorb(xs, ys) {
		return m.model
	}
	model := m.sel.New(m.kernel, tier, m.seed)
	if err := model.Fit(xs, ys, optimizeExact || tier != SurrogateExact); err != nil {
		model = nil
	}
	m.model, m.fitN = model, len(xs)
	return model
}

// absorb appends the observations the model has not seen; false when one is
// refused (Sync then rebuilds in the same round).
func (m *SurrogateModel) absorb(xs [][]float64, ys []float64) bool {
	for i := m.model.TrainingSize(); i < len(xs); i++ {
		if err := m.model.Append(xs[i], ys[i]); err != nil {
			return false
		}
	}
	return true
}

// hyperSubset is the size of the subset a tier's hyperparameter search runs
// on: the inducing set for the sparse tier, the RFF tier's fixed 64-point
// k-center subset.
func (s *SurrogateSelector) hyperSubset(tier string) int {
	if tier == SurrogateSparse {
		return s.cfg.Inducing
	}
	return 64
}
