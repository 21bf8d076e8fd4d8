package sample

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: every dimension of a Latin hypercube sample has exactly one
// point per stratum.
func TestLatinHypercubeStratification(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 8+rng.Intn(20), 1+rng.Intn(6)
		pts := LatinHypercube(n, d, rng)
		for j := 0; j < d; j++ {
			bins := make([]int, n)
			for _, p := range pts {
				b := int(p[j] * float64(n))
				if b == n {
					b = n - 1
				}
				bins[b]++
			}
			for _, c := range bins {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGridCountAndCenters(t *testing.T) {
	g := Grid(3, 2)
	if len(g) != 9 {
		t.Fatalf("grid size %d, want 9", len(g))
	}
	seen := map[[2]float64]bool{}
	for _, p := range g {
		seen[[2]float64{p[0], p[1]}] = true
	}
	if len(seen) != 9 {
		t.Error("grid points must be distinct")
	}
	if g[0][0] != 0.5/3 {
		t.Errorf("first level = %v", g[0][0])
	}
}

// PB designs must have orthogonal, balanced columns.
func TestPlackettBurmanOrthogonality(t *testing.T) {
	for _, k := range []int{3, 7, 9, 11, 15, 17, 19, 23, 40} {
		design := PlackettBurman(k)
		if len(design) == 0 {
			t.Fatalf("k=%d: empty design", k)
		}
		n := len(design)
		if n < k+1 {
			t.Fatalf("k=%d: %d runs < k+1", k, n)
		}
		for j := 0; j < k; j++ {
			sum := 0
			for _, row := range design {
				sum += row[j]
			}
			if sum != 0 && abs(sum) > 1 { // cyclic PB designs balance to 0; Hadamard exact
				t.Errorf("k=%d col %d unbalanced: sum %d", k, j, sum)
			}
		}
		// Orthogonality of column pairs (Hadamard-derived designs are exact;
		// cyclic PB designs too).
		for a := 0; a < k && a < 6; a++ {
			for b := a + 1; b < k && b < 6; b++ {
				dot := 0
				for _, row := range design {
					dot += row[a] * row[b]
				}
				if dot != 0 {
					t.Errorf("k=%d columns %d,%d not orthogonal: %d", k, a, b, dot)
				}
			}
		}
	}
}

func TestPlackettBurmanEdge(t *testing.T) {
	if PlackettBurman(0) != nil {
		t.Error("k=0 should return nil")
	}
	d := PlackettBurman(1)
	if len(d) == 0 || len(d[0]) != 1 {
		t.Errorf("k=1 design = %v", d)
	}
}

func TestFoldoverMirrors(t *testing.T) {
	d := PlackettBurman(11)
	f := Foldover(d)
	if len(f) != 2*len(d) {
		t.Fatalf("foldover size %d", len(f))
	}
	for i, row := range d {
		for j := range row {
			if f[len(d)+i][j] != -row[j] {
				t.Fatal("foldover must negate every entry")
			}
		}
	}
}

func TestLevelsToPoint(t *testing.T) {
	p := LevelsToPoint([]int{1, -1, 1}, 0.2, 0.8)
	if p[0] != 0.8 || p[1] != 0.2 || p[2] != 0.8 {
		t.Errorf("LevelsToPoint = %v", p)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
