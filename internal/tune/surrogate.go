package tune

import (
	"math"
	"math/rand"

	"repro/internal/mathx/gp"
	"repro/internal/mathx/opt"
)

// The surrogate tiers, as gp.Surrogate.Tier names them.
const (
	// SurrogateExact is the exact O(n³) GP.
	SurrogateExact = "exact"
	// SurrogateSparse is the inducing-point (FITC) GP.
	SurrogateSparse = "sparse"
	// SurrogateRFF is the random-Fourier-feature regressor.
	SurrogateRFF = "rff"
)

// The tier schedule's switches: a model stays exact while it holds at most
// sparseAbove observations, and leaves the sparse tier for RFF past rffAbove
// observations or above rffDimAbove input dimensions — inducing-point
// coverage of a high-dimensional cube degrades (k-center needs exponentially
// many centers), while RFF cost is dimension-independent past the feature
// projection.
const (
	sparseAbove = 160
	rffAbove    = 1500
	rffDimAbove = 32
)

// SurrogateConfig carries nothing: every session runs the one tier schedule.
// The type remains so a caller that passes nil to NewSurrogateSelector keeps
// compiling.
type SurrogateConfig struct{}

// SurrogateSelector resolves which surrogate tier a model-based tuner fits
// at a given training-set size. It is pure arithmetic over the schedule's
// constants, so the tier schedule is deterministic; the state of a session's
// model lives in SurrogateModel.
type SurrogateSelector struct{}

// NewSurrogateSelector returns the selector of the tier schedule; the config
// is ignored.
func NewSurrogateSelector(*SurrogateConfig) *SurrogateSelector { return &SurrogateSelector{} }

// TierFor returns the tier a model over n observations of dimension d should
// use: exact while n ≤ 160, RFF past 1 500 observations or above 32
// dimensions, and sparse in between.
func (*SurrogateSelector) TierFor(n, d int) string {
	if n <= sparseAbove {
		return SurrogateExact
	}
	if n > rffAbove || d > rffDimAbove {
		return SurrogateRFF
	}
	return SurrogateSparse
}

// New constructs a fresh surrogate of the given tier: gp.New for the exact
// tier, and the sparse and RFF tiers at gp's sizes. The seed feeds the RFF
// spectral sampler, so sessions differing only in seed explore different
// feature draws while staying individually deterministic.
func (*SurrogateSelector) New(kernel gp.KernelKind, tier string, seed int64) gp.Surrogate {
	switch tier {
	case SurrogateSparse:
		return gp.NewSparse(kernel)
	case SurrogateRFF:
		return gp.NewRFF(kernel, seed)
	default:
		return gp.New(kernel)
	}
}

// SurrogateModel is the one object a GP consumer talks to. It owns the
// observation history (Observe — the single place a non-finite objective is
// refused — with the incumbent and the best point), optionally a prior block
// placed ahead of it (SetPrior), the surrogate's lifecycle across rounds
// (Sync), and the acquisition round run on the synced model (Acquire).
//
// Sync is the one place that decides between re-fitting and absorbing. The
// exact tier is re-fitted every round — the historical path, bit for bit. A
// sparse or RFF model is rebuilt (subset re-selected, hyperparameters
// re-searched, full conditioning) only when there is none, the tier changed,
// an Append failed, or the observations appended since its last Fit have
// reached a quarter of the subset its hyperparameter search ran on; otherwise
// a round's observations are appended. The size at the last Fit is a pure
// function of the Observe/Sync sequence, which a resumed session replays, so
// parallelism and resume change nothing.
type SurrogateModel struct {
	kernel gp.KernelKind
	seed   int64

	xs    [][]float64 // the prior block, then the accepted observations in arrival order
	ys    []float64
	prior int // leading rows of xs/ys that are the prior block

	bestX     []float64 // best observed point, never a prior row; nil before the first
	incumbent float64

	model  gp.Surrogate
	fitN   int // training-set size at the last Fit
	scores []float64
}

// NewSurrogateModel returns the model of one session on the tier schedule;
// kernel and seed are what SurrogateSelector.New takes.
func NewSurrogateModel(kernel gp.KernelKind, seed int64) *SurrogateModel {
	return &SurrogateModel{kernel: kernel, seed: seed, incumbent: math.Inf(1)}
}

// Observe adds one observation and reports whether it was accepted. A
// non-finite objective is refused: a failed trial carries no value a model
// can condition on (every tier's Fit and Append reject it), and −Inf must
// never become the incumbent.
func (m *SurrogateModel) Observe(x []float64, y float64) bool {
	if !finite(y) {
		return false
	}
	m.xs, m.ys = append(m.xs, x), append(m.ys, y)
	if y < m.incumbent {
		m.incumbent, m.bestX = y, x
	}
	return true
}

// SetPrior places (xs, ys) ahead of the observations, replacing any earlier
// prior. The block conditions the model and counts toward the tier decision —
// a thousand-trial transferred session pushes the model straight into the
// sparse or RFF tier instead of an O(n³) exact fit — but never holds the
// incumbent. The next Sync rebuilds.
func (m *SurrogateModel) SetPrior(xs [][]float64, ys []float64) {
	m.xs = append(append([][]float64(nil), xs...), m.xs[m.prior:]...)
	m.ys = append(append([]float64(nil), ys...), m.ys[m.prior:]...)
	m.prior, m.model = len(xs), nil
}

// Observations returns the accepted observations, oldest first, without the
// prior block. The slices are the model's own: read, do not modify.
func (m *SurrogateModel) Observations() ([][]float64, []float64) {
	return m.xs[m.prior:], m.ys[m.prior:]
}

// Model returns the surrogate of the last successful Sync (nil if none).
func (m *SurrogateModel) Model() gp.Surrogate { return m.model }

// Sync returns a surrogate conditioned on the prior block and every
// observation, or nil when there is no observation yet or none can be fitted.
// searchUpTo is the caller's rule for the exact tier: it searches its
// hyperparameters while the history holds at most that many rows; the sparse
// and RFF tiers search on a subset — O(m³) — so they search at every Fit.
func (m *SurrogateModel) Sync(searchUpTo int) gp.Surrogate {
	n := len(m.xs)
	if n == m.prior {
		return nil
	}
	if m.model != nil && m.model.TrainingSize() == n {
		return m.model // nothing arrived since the last Sync
	}
	var sel SurrogateSelector
	tier := sel.TierFor(n, len(m.xs[0]))
	if m.model != nil && tier == m.model.Tier() && tier != SurrogateExact &&
		m.model.TrainingSize()-m.fitN < gp.DefaultInducing/4 && m.absorb() {
		return m.model
	}
	model := sel.New(m.kernel, tier, m.seed)
	if err := model.Fit(m.xs, m.ys, n <= searchUpTo || tier != SurrogateExact); err != nil {
		model = nil
	}
	m.model, m.fitN = model, n
	return model
}

// absorb appends the observations the model has not seen; false when one is
// refused (Sync then rebuilds in the same round).
func (m *SurrogateModel) absorb() bool {
	for i := m.model.TrainingSize(); i < len(m.xs); i++ {
		if err := m.model.Append(m.xs[i], m.ys[i]); err != nil {
			return false
		}
	}
	return true
}

// AcquireBatch is how many candidates the model-based tuners (iTuned,
// OtterTune) ask of one acquisition round; the concurrent engine evaluates
// them in parallel.
const AcquireBatch = 4

// screenPool is how many uniform candidates an acquisition round scores in
// its batched screening pass before polishing.
const screenPool = 48

// batchPenalty shrinks an acquisition score near points already chosen this
// round so a batch spreads out instead of piling onto one optimum.
func batchPenalty(x []float64, chosen [][]float64) float64 {
	pen := 1.0
	for _, c := range chosen {
		pen *= 1 - math.Exp(-sqDist(x, c)/(0.15*0.15))
	}
	return pen
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Acquire runs one acquisition round on the model of the last Sync (which
// must have returned one) and returns k points of the unit cube. The round
// searches the active coordinates only (nil = all of them); every other
// coordinate stays at the best observed point's. It screens that point plus
// screenPool uniform draws with one batched ScoreCandidates call, then k times
// picks the best screened start under the spread penalty and polishes it with
// a polish-evaluation Nelder–Mead search on penalized expected improvement — a
// liar-free stand-in for q-EI, so a round depends only on observed history,
// never on worker scheduling. A pick with no positive EI left is replaced by
// a uniform draw. RNG consumption, in order: screenPool × len(active) draws
// for the pool, then len(active) for each such replacement.
func (m *SurrogateModel) Acquire(k int, active []int, polish int, rng *rand.Rand) [][]float64 {
	base, model := m.bestX, m.model
	if active == nil {
		active = make([]int, len(base))
		for i := range active {
			active[i] = i
		}
	}
	draw := func() []float64 {
		sub := make([]float64, len(active))
		for j := range sub {
			sub[j] = rng.Float64()
		}
		return sub
	}
	// embed writes sub into the active coordinates of dst, a copy of base.
	embed := func(dst, sub []float64) []float64 {
		copy(dst, base)
		for j, v := range sub {
			dst[active[j]] = v
		}
		return dst
	}
	subs := make([][]float64, 0, screenPool+1)
	first := make([]float64, len(active))
	for j, a := range active {
		first[j] = base[a]
	}
	subs = append(subs, first)
	for i := 0; i < screenPool; i++ {
		subs = append(subs, draw())
	}
	fulls := make([][]float64, len(subs))
	for i, sub := range subs {
		fulls[i] = embed(make([]float64, len(base)), sub)
	}
	m.scores = model.ScoreCandidates(fulls, m.incumbent, m.scores)
	out := make([][]float64, 0, k)
	chosen := make([][]float64, 0, k)
	xbuf := make([]float64, len(base))
	for len(out) < k {
		bestAt, bestScore := 0, math.Inf(-1)
		for c, sub := range subs {
			if s := m.scores[c] * batchPenalty(sub, chosen); s > bestScore {
				bestAt, bestScore = c, s
			}
		}
		next := opt.NelderMead(func(sub []float64) float64 {
			return -model.ExpectedImprovement(embed(xbuf, sub), m.incumbent) * batchPenalty(sub, chosen)
		}, subs[bestAt], 0.15, polish)
		sub := next.X
		if next.F >= 0 { // no positive EI left: explore
			sub = draw()
		}
		chosen = append(chosen, sub)
		out = append(out, embed(make([]float64, len(base)), sub))
	}
	return out
}
