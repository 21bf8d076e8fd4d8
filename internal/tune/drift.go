package tune

import "math"

// This file is the change-detector half of the workload-drift scenario: a
// proposer wrapper that watches the observed objective stream for evidence
// that the target's workload shifted under the tuner, and reacts by
// re-anchoring the session (discarding the stale incumbent) and restarting
// its inner proposer fresh so the search re-explores instead of exploiting a
// landscape that no longer exists. The time-varying targets themselves live
// in internal/workload (workload.Drift).
//
// The detector is a windowed incumbent-regression test. Under a stationary
// workload a converging tuner keeps proposing configurations near its
// incumbent, so recent objectives hover near the best-since-anchor. After a
// shift, the same configurations measure a different workload: every recent
// result lands far above the anchor-era best. Drift is declared when the
// BEST of the last DriftWindow full-fidelity objectives exceeds DriftFactor×
// the best-since-anchor — a whole window without one near-incumbent result is
// regression of the incumbent itself, not noise (noise would have to break
// the same way DriftWindow times in a row).
//
// Determinism: detection state advances only in Observe, which every driver
// calls in proposal order, so the detection trial — and the DriftDetected
// event's position — is a pure function of the observation sequence,
// identical at any worker count and reproduced exactly by checkpoint-resume
// replay (which re-observes the same history).

// The windowed incumbent-regression detector's settings.
const (
	// DriftWindow is how many consecutive recent full-fidelity objectives
	// must all regress before drift is declared.
	DriftWindow = 4
	// DriftWarmup is how many observations must accumulate since the last
	// anchor before the test arms: the anchor-era best needs evidence before
	// regression against it means anything.
	DriftWarmup = 2 * DriftWindow
	// DriftFactor is the regression threshold: drift is declared when
	// min(last DriftWindow objectives) > DriftFactor × best-since-anchor. It
	// is deliberately coarse: a Bayesian tuner's own exploration routinely
	// proposes configurations 1.5–2× off its incumbent, and a detector tuned
	// into that band re-triggers on its own restart's design phase (a
	// detection cascade). Real workload shifts move the whole objective
	// surface — typically well past 3× — so a coarse threshold loses little
	// detection latency and buys cascade immunity.
	DriftFactor = 3.0
)

// DriftDetector wraps a proposer with workload-drift detection. On
// detection it re-anchors the bound session and replaces the inner proposer
// with a freshly constructed one (via the factory captured at build time),
// so the search restarts its design phase against the post-shift workload.
type DriftDetector struct {
	inner  Proposer
	fresh  func(remaining Budget) (Proposer, error)
	budget Budget
	sess   *Session

	recent     []float64 // ring of the last DriftWindow full-fidelity objectives
	seen       int       // observations since the last anchor
	lifetime   int       // observations over the whole session (never reset)
	bestAnchor float64   // best full-fidelity objective since the last anchor
	detections int
}

// NewDriftDetector wraps inner, which was built for budget b; fresh (which
// may be nil) rebuilds the inner proposer after a detection — without it the
// detector re-anchors the session but keeps the converged proposer, which is
// strictly weaker. fresh receives the budget REMAINING at the detection, not
// the original one, so a budget-aware tuner sizes its design phase to the
// runway actually left instead of re-spending a full session's exploration.
func NewDriftDetector(inner Proposer, fresh func(remaining Budget) (Proposer, error), b Budget) *DriftDetector {
	return &DriftDetector{inner: inner, fresh: fresh, budget: b, bestAnchor: math.Inf(1)}
}

// BindSession implements SessionAware.
func (d *DriftDetector) BindSession(s *Session) {
	d.sess = s
	bindSession(d.inner, s)
}

// Propose implements Proposer.
func (d *DriftDetector) Propose(n int) []Config { return d.inner.Propose(n) }

// Observe implements Proposer: it forwards the trial, then runs the
// regression test. The re-anchor happens between observations on the driver
// goroutine, so replay reproduces it at the same trial.
func (d *DriftDetector) Observe(t Trial) {
	d.inner.Observe(t)
	if !t.Result.FullFidelity() {
		return
	}
	obj := t.Result.Objective()
	d.seen++
	d.lifetime++
	if obj < d.bestAnchor {
		d.bestAnchor = obj
	}
	d.recent = append(d.recent, obj)
	if len(d.recent) > DriftWindow {
		d.recent = d.recent[1:]
	}
	if d.seen < DriftWarmup || len(d.recent) < DriftWindow {
		return
	}
	windowBest := math.Inf(1)
	for _, v := range d.recent {
		if v < windowBest {
			windowBest = v
		}
	}
	if windowBest <= DriftFactor*d.bestAnchor {
		return
	}
	// Regression across the whole window: re-anchor and restart the search.
	d.detections++
	d.seen, d.recent, d.bestAnchor = 0, d.recent[:0], math.Inf(1)
	if d.sess != nil {
		d.sess.ReAnchor()
	}
	if d.fresh != nil {
		remaining := d.budget
		if remaining.Trials > 0 {
			remaining.Trials -= d.lifetime
			if remaining.Trials < 1 {
				remaining.Trials = 1
			}
		}
		if p, err := d.fresh(remaining); err == nil {
			bindSession(d.inner, nil) // the replaced stack's session is over
			d.inner = p
			if d.sess != nil {
				bindSession(p, d.sess)
			}
		}
	}
}

// Detections reports how many times drift was declared.
func (d *DriftDetector) Detections() int { return d.detections }

// Recommend implements Recommender when the inner proposer does.
func (d *DriftDetector) Recommend() Config { return recommend(d.inner) }

// DriftDetectTuner wraps t so every session it starts watches for workload
// drift and re-anchors on detection. Compose it OUTSIDE warm starting and
// any other proposer wrapper: a detection rebuilds the detector's entire
// inner stack fresh, which is the "re-warm-start" the drift scenario wants.
func DriftDetectTuner(t BatchTuner) BatchTuner {
	return &wrapped{subs: []BatchTuner{t}, suffix: "+drift", wrap: func(target Target, b Budget, inner []Proposer) (Proposer, error) {
		fresh := func(remaining Budget) (Proposer, error) { return t.NewProposer(target, remaining) }
		return NewDriftDetector(inner[0], fresh, b), nil
	}}
}
