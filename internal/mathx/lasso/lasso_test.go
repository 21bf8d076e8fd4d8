package lasso

import (
	"math"
	"math/rand"
	"testing"
)

// sparseData: y depends on features 0 and 3 only, out of 8.
func sparseData(n int, rng *rand.Rand) (x [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		row := make([]float64, 8)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x = append(x, row)
		y = append(y, 4*row[0]-2.5*row[3]+0.05*rng.NormFloat64())
	}
	return x, y
}

func TestFitRecoversSparseSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := sparseData(200, rng)
	m := Fit(x, y, 0.05, 500)
	if math.Abs(m.Beta[0]) < 1 || math.Abs(m.Beta[3]) < 0.5 {
		t.Errorf("true features shrunk away: %v", m.Beta)
	}
	for _, j := range []int{1, 2, 4, 5, 6, 7} {
		if math.Abs(m.Beta[j]) > 0.2 {
			t.Errorf("noise feature %d has weight %v", j, m.Beta[j])
		}
	}
}

func TestLargeLambdaZeroesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := sparseData(100, rng)
	m := Fit(x, y, 1e6, 100)
	for j, b := range m.Beta {
		if b != 0 {
			t.Errorf("beta[%d] = %v under huge lambda", j, b)
		}
	}
}

func TestPredictTracksTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := sparseData(200, rng)
	m := Fit(x, y, 0.01, 500)
	var mae float64
	for i := range x[:50] {
		pred := m.Intercept
		for j, b := range m.Beta {
			pred += b * (x[i][j] - m.xMean[j]) / m.xStd[j]
		}
		mae += math.Abs(pred - y[i])
	}
	if mae/50 > 0.5 {
		t.Errorf("mean abs error %v too high", mae/50)
	}
}

func TestPathRankOrdersTrueFeaturesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := sparseData(300, rng)
	order := PathRank(x, y, 12)
	if len(order) != 8 {
		t.Fatalf("rank length %d", len(order))
	}
	top2 := map[int]bool{order[0]: true, order[1]: true}
	if !top2[0] || !top2[3] {
		t.Errorf("true features {0,3} not ranked first: %v", order)
	}
}

func TestEmptyInputs(t *testing.T) {
	if m := Fit(nil, nil, 0.1, 10); len(m.Beta) != 0 {
		t.Error("empty fit should be empty model")
	}
	if PathRank(nil, nil, 5) != nil {
		t.Error("empty rank should be nil")
	}
}

func TestSoftThreshold(t *testing.T) {
	if softThreshold(3, 1) != 2 || softThreshold(-3, 1) != -2 || softThreshold(0.5, 1) != 0 {
		t.Error("soft threshold wrong")
	}
}
