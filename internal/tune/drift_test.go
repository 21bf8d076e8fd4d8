package tune

import (
	"testing"
)

// scriptProposer hands out a scripted list of configs and records every
// observation — the controllable inner for wrapper tests.
type scriptProposer struct {
	cfgs     []Config
	observed []Trial
}

func (p *scriptProposer) Propose(n int) []Config {
	if n > len(p.cfgs) {
		n = len(p.cfgs)
	}
	out := p.cfgs[:n]
	p.cfgs = p.cfgs[n:]
	return out
}

func (p *scriptProposer) Observe(t Trial) { p.observed = append(p.observed, t) }

func driftSpace() *Space { return NewSpace(Float("a", 0, 1, 0.5)) }

func obs(space *Space, a, time float64) Trial {
	return Trial{Config: space.Default().With("a", a), Result: Result{Time: time}}
}

// TestDriftDetectorFiresOnRegression: after warmup, a full window of
// objectives beyond Factor× the anchor-era best declares drift exactly
// once, rebuilds the inner proposer with the REMAINING budget, and resets
// the detector so the fresh search is not immediately re-accused.
func TestDriftDetectorFiresOnRegression(t *testing.T) {
	space := driftSpace()
	inner := &scriptProposer{}
	var freshBudget Budget
	freshCalls := 0
	rebuilt := &scriptProposer{}
	fresh := func(remaining Budget) (Proposer, error) {
		freshCalls++
		freshBudget = remaining
		return rebuilt, nil
	}
	d := NewDriftDetector(inner, fresh, Budget{Trials: 30})

	// Anchor era: Warmup observations hovering near 1.0.
	for i := 0; i < DriftWarmup; i++ {
		d.Observe(obs(space, 0.5, 1.0))
	}
	if d.Detections() != 0 {
		t.Fatalf("detected drift on a stationary stream after %d obs", DriftWarmup)
	}
	// Shift: every result lands far past Factor× the anchor best.
	for i := 0; i < DriftWindow; i++ {
		if d.Detections() != 0 {
			t.Fatalf("fired before the window filled (after %d regressed obs)", i)
		}
		d.Observe(obs(space, 0.5, 10))
	}
	if d.Detections() != 1 {
		t.Fatalf("detections = %d after a full regressed window, want 1", d.Detections())
	}
	if freshCalls != 1 {
		t.Fatalf("fresh proposer built %d times, want 1", freshCalls)
	}
	wantRemaining := 30 - (DriftWarmup + DriftWindow)
	if freshBudget.Trials != wantRemaining {
		t.Errorf("fresh budget = %d trials, want the remaining %d", freshBudget.Trials, wantRemaining)
	}
	// The rebuilt proposer now owns the session: observations reach it, and
	// the detector needs a fresh warmup before it can fire again.
	d.Observe(obs(space, 0.5, 10))
	if len(rebuilt.observed) != 1 {
		t.Errorf("rebuilt proposer saw %d observations, want 1", len(rebuilt.observed))
	}
	if d.Detections() != 1 {
		t.Errorf("re-fired during the fresh proposer's warmup: %d detections", d.Detections())
	}
}

// TestDriftDetectorIgnoresExplorationNoise: objectives inside the Factor
// band — a Bayesian tuner's own exploration spread — never trigger, no
// matter how long the stream runs.
func TestDriftDetectorIgnoresExplorationNoise(t *testing.T) {
	space := driftSpace()
	d := NewDriftDetector(&scriptProposer{}, nil, Budget{Trials: 100})
	for i := 0; i < 60; i++ {
		time := 1.0
		if i%2 == 1 {
			time = 2.5 // well inside the default 3× band
		}
		d.Observe(obs(space, 0.5, time))
	}
	if d.Detections() != 0 {
		t.Errorf("detections = %d on exploration-band noise, want 0", d.Detections())
	}
}

// TestDriftDetectorIgnoresPartialFidelity: low-fidelity probes measure a
// truncated workload and must not feed the regression test.
func TestDriftDetectorIgnoresPartialFidelity(t *testing.T) {
	space := driftSpace()
	d := NewDriftDetector(&scriptProposer{}, nil, Budget{Trials: 100})
	for i := 0; i < DriftWarmup; i++ {
		d.Observe(obs(space, 0.5, 1.0))
	}
	for i := 0; i < 3*DriftWindow; i++ {
		tr := obs(space, 0.5, 50)
		tr.Result.Fidelity = 0.3
		d.Observe(tr)
	}
	if d.Detections() != 0 {
		t.Errorf("partial-fidelity results triggered %d detections", d.Detections())
	}
}

// TestDriftDetectTunerName: the wrapper is visible in the session's tuner
// name, so results and archives distinguish detecting sessions.
func TestDriftDetectTunerName(t *testing.T) {
	bt := &fakeBatchTuner{name: "probe"}
	if got := DriftDetectTuner(bt).Name(); got != "probe+drift" {
		t.Errorf("name = %q", got)
	}
}
