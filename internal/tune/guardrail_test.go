package tune

import (
	"math"
	"testing"
)

func guardrailInner(space *Space, as ...float64) *scriptProposer {
	p := &scriptProposer{}
	for _, a := range as {
		p.cfgs = append(p.cfgs, space.Default().With("a", a))
	}
	return p
}

func TestNewGuardrailValidates(t *testing.T) {
	space := driftSpace()
	if _, err := NewGuardrail(&scriptProposer{}, space, 0); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := NewGuardrail(&scriptProposer{}, nil, 1); err == nil {
		t.Error("nil space accepted")
	}
}

// TestGuardrailColdStartThrottle: before the surrogate arms, the wrapper
// releases exactly one unscreened config per Propose call — the inner's
// whole space-filling design must not escape in one batch.
func TestGuardrailColdStartThrottle(t *testing.T) {
	space := driftSpace()
	inner := guardrailInner(space, 0.1, 0.3, 0.5, 0.7, 0.9)
	g, err := NewGuardrail(inner, space, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.1, 0.3} {
		got := g.Propose(5)
		if len(got) != 1 {
			t.Fatalf("cold Propose %d released %d configs, want 1", i, len(got))
		}
		if got[0].Float("a") != want {
			t.Errorf("cold Propose %d = %v, want the inner's %v unmodified", i, got[0].Float("a"), want)
		}
		g.Observe(obs(space, want, 1))
	}
	// Exhausted inner, nothing deferred: the session ends cleanly.
	empty, _ := NewGuardrail(&scriptProposer{}, space, 10)
	if got := empty.Propose(3); got != nil {
		t.Errorf("exhausted inner proposed %v, want nil", got)
	}
}

// TestGuardrailVetoDeferMarchRelease walks the screen's whole life cycle on
// a crafted 1-D landscape: arm on three observations (one a violation),
// veto a far proposal and substitute a near-safe one, march toward the
// deferred original as safe evidence accumulates, and finally release it
// verbatim once the safe set reaches it.
func TestGuardrailVetoDeferMarchRelease(t *testing.T) {
	space := driftSpace()
	inner := guardrailInner(space, 0.1, 0.15, 0.95, 0.55)
	g, err := NewGuardrail(inner, space, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Cold start: three unscreened singles; a=0.95 violates the limit.
	for _, o := range []struct{ a, y float64 }{{0.1, 1}, {0.15, 1.2}, {0.95, 100}} {
		got := g.Propose(4)
		if len(got) != 1 || got[0].Float("a") != o.a {
			t.Fatalf("cold release = %v, want [%v]", got, o.a)
		}
		g.Observe(obs(space, o.a, o.y))
	}

	// Armed: the inner's a=0.55 is far outside the demonstrated-safe region
	// around {0.1, 0.15} — vetoed, deferred, substituted.
	got := g.Propose(4)
	if len(got) != 1 {
		t.Fatalf("armed Propose released %d configs, want 1", len(got))
	}
	sub := got[0].Float("a")
	if sub == 0.55 {
		t.Fatal("far proposal released unscreened")
	}
	if g.Vetoes() != 1 {
		t.Fatalf("vetoes = %d, want 1", g.Vetoes())
	}
	if sub > 0.3 {
		t.Errorf("substitution a = %v escaped the trust region around the safe anchors", sub)
	}
	g.Observe(obs(space, sub, 1.5))

	// Safe evidence lands at 0.44: the deferred 0.55 now passes the UCB and
	// trust-region screens but has no evidence within the local band — the
	// screen marches a capped step toward it instead of releasing it outright.
	g.Observe(obs(space, 0.44, 1))
	got = g.Propose(4)
	if len(got) != 1 {
		t.Fatalf("march Propose released %d configs, want 1", len(got))
	}
	step := got[0].Float("a")
	if step == 0.55 {
		t.Fatal("deferred config released without local safe evidence")
	}
	if step <= 0.44 || step >= 0.55 {
		t.Errorf("march step a = %v, want a step in (0.44, 0.55) toward the deferred config", step)
	}
	g.Observe(obs(space, step, 1))

	// The step's observation is the local evidence: the original deferred
	// proposal is finally released exactly as the inner proposed it.
	got = g.Propose(4)
	if len(got) != 1 || got[0].Float("a") != 0.55 {
		t.Fatalf("release = %v, want the deferred [0.55] verbatim", got)
	}
	g.Observe(obs(space, 0.55, 2.5))

	// Everything after flows from the inner again (which is now empty).
	if got := g.Propose(4); got != nil {
		t.Errorf("drained guardrail proposed %v, want nil", got)
	}
}

// TestGuardrailObserveTracksSafeSetOnly: violating and failed trials join
// the surrogate's training data but never the safe set.
func TestGuardrailObserveTracksSafeSetOnly(t *testing.T) {
	space := driftSpace()
	g, err := NewGuardrail(&scriptProposer{}, space, 10)
	if err != nil {
		t.Fatal(err)
	}
	g.Observe(obs(space, 0.2, 5)) // safe
	g.Observe(obs(space, 0.8, 50))
	failed := obs(space, 0.5, 3)
	failed.Result.Failed = true
	g.Observe(failed)
	if xs, _ := g.model.Observations(); len(xs) != 3 {
		t.Fatalf("model data has %d points, want all 3", len(xs))
	}
	if len(g.safeXs) != 1 {
		t.Fatalf("safe set has %d points, want only the in-limit success", len(g.safeXs))
	}
	if !g.hasSafe || g.bestSafe.Float("a") != 0.2 {
		t.Errorf("best safe = %+v, want a=0.2", g.bestSafe)
	}
}

func TestGuardrailTunerName(t *testing.T) {
	gt, err := GuardrailTuner(&fakeBatchTuner{name: "probe"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := gt.Name(); got != "probe+guardrail" {
		t.Errorf("name = %q", got)
	}
	if _, err := GuardrailTuner(&fakeBatchTuner{name: "probe"}, 0); err == nil {
		t.Error("guardrail tuner without a limit accepted")
	}
}

// TestGuardrailNonFiniteObjectiveKeepsScreening: a trial whose objective is
// +Inf (the target died without a time) must not blind the screen for the
// rest of the session. The model refuses that one value and keeps absorbing
// the finite ones after it; the configuration itself stays a keep-out.
func TestGuardrailNonFiniteObjectiveKeepsScreening(t *testing.T) {
	space := driftSpace()
	g, err := NewGuardrail(&scriptProposer{}, space, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range []float64{0.1, 0.2, 0.3} {
		g.Observe(obs(space, a, 1+float64(i)))
	}
	g.Propose(1)
	if g.armed == nil || g.armed.TrainingSize() != 3 {
		t.Fatalf("screen not armed on three observations: %v", g.armed)
	}
	g.Observe(obs(space, 0.9, math.Inf(1)))
	g.Propose(1)
	if g.armed == nil || g.armed.TrainingSize() != 3 {
		t.Fatalf("the infinite trial must leave the last good screen in place: %v", g.armed)
	}
	for i, a := range []float64{0.4, 0.5, 0.6} {
		g.Observe(obs(space, a, 2+float64(i)))
	}
	g.Propose(1)
	if n := g.armed.TrainingSize(); n != 6 {
		t.Fatalf("screen model holds %d observations after the infinite trial, want all 6 finite ones", n)
	}
	if len(g.refused) != 1 || g.safe(space.Default().With("a", 0.9).Vector()) {
		t.Errorf("the configuration that returned +Inf must stay off-limits (refused = %v)", g.refused)
	}
}

func TestGuardrailNonFiniteObjectiveKeepsScreeningRace3(t *testing.T) {
	TestGuardrailNonFiniteObjectiveKeepsScreening(t)
}

// TestGuardrailLongSessionLeavesTheExactTier: past the exact tier's size
// limit the screen is a sparse model that absorbs a round's observations,
// not a cubic refit of the whole history at every Propose.
func TestGuardrailLongSessionLeavesTheExactTier(t *testing.T) {
	space := driftSpace()
	g, err := NewGuardrail(&scriptProposer{}, space, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 160; i++ {
		a := float64(i) / 200
		g.Observe(obs(space, a, 1+a))
	}
	g.Propose(1)
	if tier := g.armed.Tier(); tier != SurrogateExact {
		t.Fatalf("160 observations: tier %q, want exact", tier)
	}
	g.Observe(obs(space, 0.9, 1.9))
	g.Propose(1)
	sparse := g.armed
	if sparse.Tier() != SurrogateSparse || sparse.TrainingSize() != 161 {
		t.Fatalf("161 observations: %s model over %d, want sparse over 161", sparse.Tier(), sparse.TrainingSize())
	}
	g.Observe(obs(space, 0.95, 1.95))
	g.Propose(1)
	if g.armed != sparse || sparse.TrainingSize() != 162 {
		t.Fatalf("the next observation must be appended to the same model: %v over %d", g.armed == sparse, g.armed.TrainingSize())
	}
}

func TestGuardrailLongSessionLeavesTheExactTierRace3(t *testing.T) {
	TestGuardrailLongSessionLeavesTheExactTier(t)
}
