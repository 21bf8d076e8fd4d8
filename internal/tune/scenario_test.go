package tune

import (
	"math"
	"testing"
)

func ptrial(space *Space, a, time, cost float64) Trial {
	tr := obs(space, a, time)
	tr.Result.Cost = cost
	return tr
}

func TestParetoDominates(t *testing.T) {
	space := driftSpace()
	a := ptrial(space, 0.1, 1, 1)
	b := ptrial(space, 0.2, 2, 2)
	tie := ptrial(space, 0.3, 1, 2)
	if !ParetoDominates(a, b) || ParetoDominates(b, a) {
		t.Error("strictly better point does not dominate")
	}
	if ParetoDominates(a, a) {
		t.Error("a point dominates itself")
	}
	if ParetoDominates(tie, a) || !ParetoDominates(a, tie) {
		t.Error("equal-objective, worse-cost point mishandled")
	}
	// Failure makes a trial 10× worse on the objective axis, so a clean
	// slower trial still dominates a failed faster one.
	failed := ptrial(space, 0.4, 0.5, 2)
	failed.Result.Failed = true
	if !ParetoDominates(a, failed) {
		t.Error("clean trial does not dominate a failed one with penalized objective")
	}
}

func TestParetoFront(t *testing.T) {
	space := driftSpace()
	trials := []Trial{
		ptrial(space, 0.1, 1, 10), // fast, expensive: on front
		ptrial(space, 0.2, 5, 1),  // slow, cheap: on front
		ptrial(space, 0.3, 2, 5),  // middle trade-off: on front
		ptrial(space, 0.4, 6, 2),  // dominated by (5,1)
		ptrial(space, 0.5, 2, 6),  // dominated by (2,5)
	}
	// Failed and partial-fidelity trials never enter the front.
	failed := ptrial(space, 0.6, 0.1, 0.1)
	failed.Result.Failed = true
	partial := ptrial(space, 0.7, 0.1, 0.1)
	partial.Result.Fidelity = 0.3
	trials = append(trials, failed, partial)
	front := ParetoFront(trials)
	if len(front) != 3 {
		t.Fatalf("front has %d points, want 3", len(front))
	}
	want := map[float64]float64{1: 10, 5: 1, 2: 5} // objective -> cost
	for _, f := range front {
		if c, ok := want[f.Result.Objective()]; !ok || c != f.Result.Cost {
			t.Errorf("unexpected front point (%v, %v)", f.Result.Objective(), f.Result.Cost)
		}
	}
	for i, a := range front {
		for j, b := range front {
			if i != j && ParetoDominates(a, b) {
				t.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
	if got := ParetoFront(nil); got != nil {
		t.Errorf("empty input produced a front: %v", got)
	}
}

func TestHypervolume(t *testing.T) {
	space := driftSpace()
	// One point at (1, 1) against ref (3, 3): a 2×2 rectangle.
	one := []Trial{ptrial(space, 0.1, 1, 1)}
	if got := Hypervolume(one, 3, 3); math.Abs(got-4) > 1e-12 {
		t.Errorf("single-point hv = %v, want 4", got)
	}
	// Two trade-off points (1,2) and (2,1) against ref (3,3):
	// 1×(3-2) + 1×(3-1) = 3.
	two := []Trial{ptrial(space, 0.1, 1, 2), ptrial(space, 0.2, 2, 1)}
	if got := Hypervolume(two, 3, 3); math.Abs(got-3) > 1e-12 {
		t.Errorf("two-point hv = %v, want 3", got)
	}
	// A point at or beyond the reference contributes nothing.
	if got := Hypervolume([]Trial{ptrial(space, 0.1, 3, 1)}, 3, 3); got != 0 {
		t.Errorf("on-reference point contributed %v", got)
	}
	if got := Hypervolume(nil, 3, 3); got != 0 {
		t.Errorf("empty front hv = %v", got)
	}
}

// TestNormalizedHypervolume: fronts are scored on axes scaled over their
// union, so a front that dominates another on both axes scores higher even
// when raw magnitudes would drown the difference, and identical fronts tie.
func TestNormalizedHypervolume(t *testing.T) {
	space := driftSpace()
	better := []Trial{ptrial(space, 0.1, 10, 100), ptrial(space, 0.2, 20, 50)}
	worse := []Trial{ptrial(space, 0.3, 15, 110), ptrial(space, 0.4, 25, 60)}
	hvs := NormalizedHypervolume(better, worse)
	if len(hvs) != 2 {
		t.Fatalf("got %d scores for 2 fronts", len(hvs))
	}
	if hvs[0] <= hvs[1] {
		t.Errorf("dominating front scored %v ≤ dominated front's %v", hvs[0], hvs[1])
	}
	same := NormalizedHypervolume(better, better)
	if same[0] != same[1] {
		t.Errorf("identical fronts scored differently: %v vs %v", same[0], same[1])
	}
	// Degenerate spans (single shared point) must not produce NaN.
	point := []Trial{ptrial(space, 0.1, 5, 5)}
	for _, hv := range NormalizedHypervolume(point, point) {
		if math.IsNaN(hv) || math.IsInf(hv, 0) {
			t.Errorf("degenerate span produced %v", hv)
		}
	}
}
