package stat

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almostEq(Variance(xs), 32.0/7, 1e-12) {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestMinMaxArgMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1.5}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Error("min/max wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty min/max should be infinities")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 || Quantile(xs, 0.5) != 3 {
		t.Error("quantile endpoints wrong")
	}
	if !almostEq(Quantile(xs, 0.25), 2, 1e-12) {
		t.Errorf("q25 = %v", Quantile(xs, 0.25))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestPearsonSpearman(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yLinear := []float64{2, 4, 6, 8, 10}
	if !almostEq(Pearson(x, yLinear), 1, 1e-12) {
		t.Error("perfect linear correlation expected")
	}
	yMonotone := []float64{1, 8, 27, 64, 125} // nonlinear but monotone
	if !almostEq(Spearman(x, yMonotone), 1, 1e-12) {
		t.Error("Spearman should be 1 for monotone data")
	}
	yInv := []float64{5, 4, 3, 2, 1}
	if !almostEq(Spearman(x, yInv), -1, 1e-12) {
		t.Error("Spearman should be −1 for reversed data")
	}
	if Pearson(x, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Error("zero-variance correlation should be 0")
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Ranks = %v, want %v", r, want)
			break
		}
	}
}

func TestNormDistribution(t *testing.T) {
	if !almostEq(NormCDF(0), 0.5, 1e-12) {
		t.Error("Φ(0) should be 0.5")
	}
	if !almostEq(NormCDF(1.96), 0.975, 1e-3) {
		t.Errorf("Φ(1.96) = %v", NormCDF(1.96))
	}
	if !almostEq(NormPDF(0), 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Error("φ(0) wrong")
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	act := []float64{100, 100}
	if !almostEq(MAPE(pred, act), 0.1, 1e-12) {
		t.Errorf("MAPE = %v", MAPE(pred, act))
	}
	if MAPE([]float64{1}, []float64{0}) != 0 {
		t.Error("zero actuals must be skipped")
	}
}
