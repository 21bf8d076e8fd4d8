package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// threeBlobs generates well-separated 2-D clusters around (0,0), (10,0), (0,10).
func threeBlobs(n int, rng *rand.Rand) (points [][]float64, labels []int) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for i := 0; i < n; i++ {
		c := i % 3
		points = append(points, []float64{
			centers[c][0] + rng.NormFloat64()*0.5,
			centers[c][1] + rng.NormFloat64()*0.5,
		})
		labels = append(labels, c)
	}
	return points, labels
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, labels := threeBlobs(90, rng)
	res := KMeans(points, 3, 50, rng)
	// Every pair in the same true cluster must share an assignment.
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			same := labels[i] == labels[j]
			got := res.Assignments[i] == res.Assignments[j]
			if same != got {
				t.Fatalf("points %d,%d: true-same=%v assigned-same=%v", i, j, same, got)
			}
		}
	}
	if res.Inertia <= 0 {
		t.Error("inertia should be positive for noisy blobs")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if res := KMeans(nil, 3, 10, rng); len(res.Assignments) != 0 {
		t.Error("empty input should give empty result")
	}
	// k > n clamps to n.
	pts := [][]float64{{1}, {2}}
	res := KMeans(pts, 5, 10, rng)
	if len(res.Centers) != 2 {
		t.Errorf("k should clamp to n, got %d centers", len(res.Centers))
	}
}

func TestRepresentativeNearestCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points, _ := threeBlobs(30, rng)
	res := KMeans(points, 3, 50, rng)
	reps := res.RepresentativeNearestCenter(points)
	if len(reps) != 3 {
		t.Fatalf("reps = %v", reps)
	}
	for c, r := range reps {
		if r < 0 || res.Assignments[r] != c {
			t.Errorf("rep %d of cluster %d invalid", r, c)
		}
	}
}

func TestPCADominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Data varies strongly along (1,1)/√2 and weakly along (1,−1)/√2.
	var x [][]float64
	for i := 0; i < 300; i++ {
		a := rng.NormFloat64() * 5
		b := rng.NormFloat64() * 0.3
		x = append(x, []float64{a + b, a - b})
	}
	comps, explained := PCA(x, 2, 100, rng)
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	// First component parallel to (1,1).
	ratio := comps[0][0] / comps[0][1]
	if math.Abs(math.Abs(ratio)-1) > 0.1 {
		t.Errorf("first component %v not along (1,1)", comps[0])
	}
	if explained[0] < 10*explained[1] {
		t.Errorf("explained variances %v not separated", explained)
	}
}

func TestPCAEmpty(t *testing.T) {
	c, e := PCA(nil, 2, 10, rand.New(rand.NewSource(5)))
	if c != nil || e != nil {
		t.Error("empty PCA should return nils")
	}
}
