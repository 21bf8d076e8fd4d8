package opt

import (
	"math"
	"math/rand"
	"testing"
)

// shiftedSphere has its minimum 0 at (0.3, 0.7, 0.5).
func shiftedSphere(x []float64) float64 {
	c := []float64{0.3, 0.7, 0.5}
	var s float64
	for i := range x {
		d := x[i] - c[i%3]
		s += d * d
	}
	return s
}

func TestOptimizersMinimizeSphere(t *testing.T) {
	cases := []struct {
		name string
		run  func(rng *rand.Rand) Best
		tol  float64
	}{
		{"RRS", func(rng *rand.Rand) Best { return RecursiveRandomSearch(shiftedSphere, 3, 600, rng) }, 0.02},
		{"NelderMead", func(*rand.Rand) Best { return NelderMead(shiftedSphere, []float64{0.5, 0.5, 0.5}, 0.15, 300) }, 0.02},
	}
	for _, c := range cases {
		best := c.run(rand.New(rand.NewSource(7)))
		if best.F > c.tol {
			t.Errorf("%s: best %v > tol %v at %v", c.name, best.F, c.tol, best.X)
		}
	}
}

func TestNelderMeadConverges(t *testing.T) {
	start := []float64{0.9, 0.1, 0.9}
	best := NelderMead(shiftedSphere, start, 0.2, 400)
	if best.F > 1e-3 {
		t.Errorf("NelderMead best %v at %v", best.F, best.X)
	}
}

func TestBudgetZeroSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if b := RecursiveRandomSearch(shiftedSphere, 2, 0, rng); !math.IsInf(b.F, 1) {
		t.Error("zero budget should return empty best")
	}
}

func TestResultsStayInCube(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	escape := func(x []float64) float64 {
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("optimizer evaluated out-of-cube point %v", x)
			}
		}
		return -x[0] // pushes toward the boundary
	}
	RecursiveRandomSearch(escape, 2, 300, rng)
	NelderMead(escape, []float64{0.9, 0.5}, 0.3, 200)
}
