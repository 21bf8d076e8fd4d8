package tune

import (
	"fmt"
	"math"

	"repro/internal/mathx/gp"
)

// This file is the safety half of the scenario work: a proposer wrapper that
// vetoes candidate configurations whose surrogate-predicted objective
// exceeds a hard guardrail, substituting a conservatively interpolated
// configuration instead. The prediction model is an upper confidence bound
// from a Matérn-5/2 surrogate over the session's full-fidelity observations:
// a proposal passes only when mu + GuardrailKappa·sigma ≤ limit, so the gate
// errs on the side of rejecting when the surrogate is unsure.
//
// Failure modes, by construction:
//   - Cold start: until GuardrailMinObs full-fidelity observations exist
//     there is no surrogate, and proposals pass unscreened. The wrapper
//     throttles the exposure — while unarmed it releases the inner proposer's
//     configs one per batch instead of forwarding a whole space-filling
//     design at once, so at most GuardrailMinObs trials ever run unscreened —
//     but those trials can still violate the guardrail; the bound session
//     counts such violations and they surface on events and /healthz rather
//     than being hidden.
//   - Surrogate error: the GP can underpredict a cliff it has never sampled;
//     the margin widens the gate but cannot make the screen sound. The
//     guardrail is best-effort risk reduction, not a certified bound.
//   - Over-conservatism: a tight limit can veto everything; the wrapper then
//     falls back to the best observed safe configuration,
//     so the search degenerates to exploitation rather than stalling.
//
// Determinism: the surrogate is brought in step with the observation history
// at the head of each Propose (SurrogateModel.Sync — the lifecycle the
// model-based tuners run), and every driver delivers that history in proposal
// order, so
// vetoes — and the substituted configurations — are a pure function of the
// observation sequence, identical at any worker count.

// The surrogate screen's two settings.
const (
	// GuardrailMinObs is how many full-fidelity observations must exist
	// before the surrogate screen arms.
	GuardrailMinObs = 3
	// GuardrailKappa is the confidence margin: a proposal needs
	// mu + GuardrailKappa·sigma ≤ log(limit) to pass. The UCB is evaluated in
	// log-objective space, where sigma is already a multiplicative margin;
	// two posterior deviations is what it takes to catch near-wall marching
	// steps, whose predicted mean sits just under the limit by construction.
	GuardrailKappa = 2.0
)

// Guardrail wraps a proposer with a surrogate safety screen.
type Guardrail struct {
	inner Proposer
	space *Space
	limit float64 // the objective guardrail: nothing predicted to exceed it is proposed

	model   *SurrogateModel // full-fidelity observations, as log-objectives (see refit)
	armed   gp.Surrogate    // the last good model; nil until GuardrailMinObs observations
	refused [][]float64     // configurations whose outcome the model refused as non-finite

	bestSafe    Config
	bestSafeObj float64
	hasSafe     bool
	safeXs      [][]float64 // vectors of every observed in-limit config
	pending     []Config    // inner proposals queued behind the cold-start throttle
	deferred    []Config    // vetoed originals awaiting safe-set growth
	vetoes      int
}

// Safe-set expansion constants: a candidate is trusted only within
// trustRadius (max-norm, unit cube) of some observed in-limit configuration,
// and the radius widens by trustGrow per safe observation — the screen
// explores outward from demonstrated-safe ground instead of trusting GP
// extrapolation into regions it has never sampled, which is where every
// early-session violation comes from (a surrogate fit on three clustered
// design points predicts their mean everywhere, with their tiny spread as
// its uncertainty).
const (
	trustRadius = 0.10
	trustGrow   = 0.01
)

// NewGuardrail wraps inner so that no configuration predicted to exceed
// limit (required, > 0) is proposed; space is the target's configuration
// space (used to interpolate replacement configurations).
func NewGuardrail(inner Proposer, space *Space, limit float64) (*Guardrail, error) {
	if !(limit > 0) {
		return nil, fmt.Errorf("tune: guardrail requires a positive limit, got %v", limit)
	}
	if space == nil {
		return nil, fmt.Errorf("tune: guardrail requires the target space")
	}
	return &Guardrail{
		inner: inner, space: space, limit: limit,
		model: NewSurrogateModel(gp.Matern52, 0),
	}, nil
}

// BindSession implements SessionAware: the bound session counts every
// full-fidelity trial over the limit, and the inner proposer is forwarded the
// handle.
func (g *Guardrail) BindSession(s *Session) {
	if s != nil {
		s.guard(g.limit)
	}
	bindSession(g.inner, s)
}

// Vetoes reports how many inner proposals the screen replaced.
func (g *Guardrail) Vetoes() int { return g.vetoes }

// refit brings the screen in step with the observations. On the exact tier
// hyperparameter optimization is skipped: the screen refits every batch and
// an MLE search per batch would dominate session cost; fixed Matérn-5/2
// hyperparameters with standardized targets are accurate enough to rank
// "safe" against "over the limit". Past the exact tier's size limit the model
// is appended to rather than refit. A refused fit keeps the last good screen —
// never "everything is safe".
//
// The model is fit in LOG objective space. Tuning objectives are
// multiplicative — a bad configuration is 10× or 100× the incumbent, and
// failure penalties stretch the range further — so a GP on raw values is
// dominated by the cliffs: its posterior variance is cliff-sized everywhere
// and mu + GuardrailKappa·sigma exceeds any sane limit for every candidate,
// collapsing the screen into always-veto (and the search into pure
// exploitation of the safe anchor). In log space the same data spans a few
// units, the UCB is informative, and the comparison against log(Limit) is
// exactly the multiplicative margin a guardrail means.
func (g *Guardrail) refit() {
	if _, ys := g.model.Observations(); len(ys) < GuardrailMinObs {
		return
	}
	if m := g.model.Sync(0); m != nil {
		g.armed = m
	}
}

// safe reports whether x clears the limit under ALL three screens:
//
//   - GP upper confidence bound: mu + GuardrailKappa·sigma ≤ log(limit).
//   - Nearest-neighbor keep-out: the nearest observed configuration must
//     itself have been in-limit. A smooth GP posterior averages a single
//     observed cliff point away among many smooth neighbors — an OOM cliff
//     is a discontinuity no stationary kernel represents — but the observed
//     violation itself is certain evidence, and the region it anchors stays
//     off-limits until a closer safe observation shrinks it.
//   - Safe-set expansion: x must lie within the (growing) trust radius of
//     some observed in-limit configuration. This is what keeps the design
//     phase honest — before the surrogate has seen the landscape's spread
//     its confidence bounds mean nothing, and distance to demonstrated-safe
//     ground is the only evidence there is.
//
// With no armed surrogate everything is (optimistically) safe.
func (g *Guardrail) safe(x []float64) bool {
	if g.armed == nil {
		return true
	}
	logLimit := math.Log(g.limit)
	mu, sigma := g.armed.Predict(x)
	if mu+GuardrailKappa*sigma > logLimit {
		return false
	}
	// A refused observation has no value to learn from, but a run that did not
	// even yield a finite objective is over any limit.
	nnOver, nnDist := false, math.Inf(1)
	xs, ys := g.model.Observations()
	for i, xi := range xs {
		if d2 := sqDist(xi, x); d2 < nnDist {
			nnOver, nnDist = ys[i] > logLimit, d2
		}
	}
	for _, xi := range g.refused {
		if d2 := sqDist(xi, x); d2 < nnDist {
			nnOver, nnDist = true, d2
		}
	}
	if nnOver {
		return false
	}
	if len(g.safeXs) == 0 {
		return true
	}
	r := trustRadius + trustGrow*float64(len(g.safeXs))
	if r >= 1 {
		return true // trust region has grown past the whole unit cube
	}
	return g.nearSafe(x, r)
}

// screen returns (cfg, false) when it passes; on a veto it returns the
// furthest point along the segment from the best observed safe configuration
// toward cfg that still passes (8 halvings of binary search), otherwise the
// best safe configuration itself, with vetoed=true. With no safe anchor yet
// the veto falls back to passing cfg through — there is nothing safer to
// substitute.
func (g *Guardrail) screen(cfg Config) (_ Config, vetoed bool) {
	x := cfg.Vector()
	if g.safe(x) {
		return cfg, false
	}
	g.vetoes++
	if !g.hasSafe {
		return cfg, true
	}
	lo, p := g.bisect(g.bestSafe.Vector(), x, 1)
	if lo == 0 {
		return g.bestSafe, true
	}
	return g.space.FromVector(p), true
}

// bisect halves [0, hi] eight times toward the furthest fraction of the way
// from anchor to x whose point passes the screen, and returns that fraction
// (0 when no probe passed) with its point.
func (g *Guardrail) bisect(anchor, x []float64, hi float64) (float64, []float64) {
	lo := 0.0
	for range 8 {
		mid := (lo + hi) / 2
		if g.safe(lerp(anchor, x, mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, lerp(anchor, x, lo)
}

// lerp returns the point the fraction t of the way from a toward b.
func lerp(a, b []float64, t float64) []float64 {
	p := make([]float64, len(a))
	for i := range p {
		p[i] = a[i] + t*(b[i]-a[i])
	}
	return p
}

// Propose implements Proposer: it refits the surrogate on everything
// observed so far, asks the inner proposer, and screens each candidate.
//
// The screen is SEQUENTIAL by design: every Propose releases exactly one
// configuration, so every safety judgment is made by a surrogate that has
// seen every prior outcome. Batch release is what makes a screen unsound —
// design-phase tuners hand over their whole space-filling design in the
// first Propose call (before a single observation exists), and screening a
// 27-config tail batch with a 3-observation model is barely better. The
// Proposer contract allows returning fewer than n configurations, so the
// wrapper queues the inner proposer's surplus in `pending` and dribbles it
// out one observation round-trip at a time; the driver observes each release
// before the next one is judged. The cost is parallel throughput — workers
// idle while the screen deliberates — which is the classic safe-exploration
// trade. The release schedule is a pure function of the observation
// sequence, so the stream stays byte-identical at any worker count.
//
// A veto is a deferral, not a verdict: vetoed originals are retried once the
// safe set has expanded to cover them, taking priority over new proposals.
// Without this the substitution permanently erases whatever the vetoed
// configuration would have revealed — the inner model trains on the
// substituted point's result and never learns that a better basin may lie
// past the early trust boundary.
func (g *Guardrail) Propose(n int) []Config {
	g.refit()
	if n <= 0 {
		return nil
	}
	if g.armed != nil {
		if i := g.releasableDeferred(); i >= 0 {
			cfg := g.deferred[i]
			// Full release needs local evidence: a demonstrated-safe
			// observation within trustRadius of the deferred point. Far from
			// data the GP posterior reverts to its prior mean with in-sample
			// variance — exactly the optimism that lets a 1.5×-over-limit
			// design point "pass" once the global radius has grown past it.
			// Until evidence exists the screen marches one safe step along
			// the ray toward the deferred point instead; each step extends
			// the safe set that direction, and if a step reveals a rising
			// objective the UCB (or the nearest-neighbor keep-out, if the
			// step itself lands over the limit) locks the point back down.
			if g.nearSafe(cfg.Vector(), trustRadius) {
				g.deferred = append(g.deferred[:i], g.deferred[i+1:]...)
				return []Config{cfg}
			}
			if g.hasSafe {
				return []Config{g.expandToward(cfg.Vector())}
			}
		}
	}
	if len(g.pending) == 0 {
		g.pending = g.inner.Propose(n)
		if len(g.pending) == 0 {
			return nil
		}
	}
	cfg := g.pending[0]
	g.pending = g.pending[1:]
	if g.armed == nil {
		return []Config{cfg} // unscreened cold start, throttled to one per round-trip
	}
	scr, vetoed := g.screen(cfg)
	if vetoed {
		g.deferred = append(g.deferred, cfg)
	}
	return []Config{scr}
}

// releasableDeferred returns the index of the first deferred configuration
// the current safe set clears, or -1. Release order is FIFO over the current
// model state, a pure function of the observation sequence.
func (g *Guardrail) releasableDeferred() int {
	for i, cfg := range g.deferred {
		if g.safe(cfg.Vector()) {
			return i
		}
	}
	return -1
}

// nearSafe reports whether some observed in-limit configuration lies within
// max-norm r of x.
func (g *Guardrail) nearSafe(x []float64, r float64) bool {
	for _, sx := range g.safeXs {
		if maxDist(sx, x) <= r {
			return true
		}
	}
	return false
}

// maxDist is the max-norm distance between a and b, the trust region's metric.
func maxDist(a, b []float64) float64 {
	d := 0.0
	for j := range a {
		if v := math.Abs(a[j] - b[j]); v > d {
			d = v
		}
	}
	return d
}

// expandToward returns one marching step of safe-set expansion: the furthest
// point that still passes the screen along the segment from the nearest
// observed safe configuration toward x, capped at trustRadius per step so
// the march gathers evidence at a pace the keep-out screens can react to.
func (g *Guardrail) expandToward(x []float64) Config {
	anchor, bestD := g.bestSafe.Vector(), math.Inf(1)
	for _, sx := range g.safeXs {
		if d := maxDist(sx, x); d < bestD {
			bestD, anchor = d, sx
		}
	}
	hi := 1.0
	if bestD > trustRadius {
		hi = trustRadius / bestD
	}
	if p := lerp(anchor, x, hi); g.safe(p) {
		return g.space.FromVector(p)
	}
	_, p := g.bisect(anchor, x, hi)
	return g.space.FromVector(p)
}

// Observe implements Proposer: the surrogate trains on the true outcome of
// whatever was actually evaluated, and the best observed in-limit
// configuration becomes the interpolation anchor for future vetoes.
func (g *Guardrail) Observe(t Trial) {
	g.inner.Observe(t)
	if !t.Result.FullFidelity() {
		return
	}
	x, obj := t.Config.Vector(), t.Result.Objective()
	if !g.model.Observe(x, math.Log(math.Max(obj, 1e-9))) {
		g.refused = append(g.refused, x)
	}
	if !t.Result.Failed && obj <= g.limit {
		g.safeXs = append(g.safeXs, x)
		if !g.hasSafe || obj < g.bestSafeObj {
			g.bestSafe, g.bestSafeObj, g.hasSafe = t.Config, obj, true
		}
	}
}

// Recommend implements Recommender: an unsafe inner recommendation is
// screened like any proposal.
func (g *Guardrail) Recommend() Config {
	if cfg := recommend(g.inner); cfg.Valid() {
		g.refit()
		scr, _ := g.screen(cfg)
		return scr
	}
	if g.hasSafe {
		return g.bestSafe
	}
	return Config{}
}

// GuardrailTuner wraps t so no session it starts knowingly proposes a
// configuration predicted to exceed limit. Compose it outside the base
// tuner but inside warm starting and drift detection (transferred seeds are
// evidence worth screening; a drift re-anchor should rebuild the screen).
func GuardrailTuner(t BatchTuner, limit float64) (BatchTuner, error) {
	if !(limit > 0) {
		return nil, fmt.Errorf("tune: guardrail requires a positive limit, got %v", limit)
	}
	return &wrapped{subs: []BatchTuner{t}, suffix: "+guardrail", wrap: func(target Target, _ Budget, inner []Proposer) (Proposer, error) {
		return NewGuardrail(inner[0], target.Space(), limit)
	}}, nil
}
