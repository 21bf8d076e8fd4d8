package main

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, // 9.9 samples beyond p90
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) and
// statistics.median(v) print — the driver's arithmetic.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	v := []float64{12, 3, 7, 9, 21, 4, 15, 8, 11, 6}
	q1, q3 := quartiles(v)
	if q1 != 5.5 || q3 != 12.75 {
		t.Errorf("quartiles = %v, %v; want 5.5, 12.75", q1, q3)
	}
	if m := median(v); m != 8.5 {
		t.Errorf("median = %v, want 8.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestGmeanOfGroups(t *testing.T) {
	if got, n := gmeanOfGroups([][]float64{{1, 10, 100}}); math.Abs(got-10) > 1e-12 || n != 3 {
		t.Errorf("one group: %v over %d, want 10 over 3", got, n)
	}
	// Groups weigh the same whatever their size: gmean(2,2,2,2)=2 and
	// gmean(8)=8 combine to 4, not to the pooled 2.64.
	if got, n := gmeanOfGroups([][]float64{{2, 2, 2, 2}, {8}, nil}); math.Abs(got-4) > 1e-12 || n != 5 {
		t.Errorf("two groups: %v over %d, want 4 over 5", got, n)
	}
	if got, _ := gmeanOfGroups([][]float64{{4, 0, -3}}); got != 4 {
		t.Errorf("non-positive values not skipped: %v, want 4", got)
	}
	if got, n := gmeanOfGroups(nil); got != 0 || n != 0 {
		t.Errorf("nothing: %v over %d, want 0 over 0", got, n)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "engine.run", Start: 0, End: 100, Parent: -1},
		// Two workers of one parallel batch overlap on [20, 30]: their
		// union covers [10, 50], not 20 + 30.
		{Name: "sysmodel.run", Start: 10, End: 30, Parent: 0},
		{Name: "sysmodel.run", Start: 20, End: 50, Parent: 0},
		// Disjoint, then one contained in another.
		{Name: "tune.observe", Start: 60, End: 70, Parent: 0},
		{Name: "tune.propose", Start: 62, End: 65, Parent: 0},
		// A child that outlives its parent is clipped to it.
		{Name: "store.append", Start: 95, End: 120, Parent: 0},
		// A grandchild is its parent's business, not the root's.
		{Name: "inner", Start: 12, End: 14, Parent: 1},
	}
	self := selfTimes(spans)
	if want := int64(100 - 40 - 10 - 5); self[0] != want {
		t.Errorf("root self time = %d, want %d", self[0], want)
	}
	if self[1] != 18 {
		t.Errorf("child with a grandchild: self = %d, want 18", self[1])
	}
	if self[2] != 30 || self[6] != 2 {
		t.Errorf("leaf self times = %d, %d; want 30, 2", self[2], self[6])
	}
}
