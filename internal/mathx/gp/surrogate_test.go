package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx/linalg"
)

// rffWith returns an RFF surrogate with features random features instead of
// DefaultFeatures.
func rffWith(kernel KernelKind, features int, seed int64) *RFF {
	r := NewRFF(kernel, seed)
	r.featureCount = features
	return r
}

// testSurface is a smooth deterministic function on [0,1]² the convergence
// tests model.
func testSurface(x []float64) float64 {
	return math.Sin(3*x[0]) + 0.5*math.Cos(5*x[1]) + x[0]*x[1]
}

// surfaceData samples n points of testSurface at fixed pseudo-random inputs.
func surfaceData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = testSurface(xs[i])
	}
	return xs, ys
}

func testGrid() [][]float64 {
	var pts [][]float64
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			pts = append(pts, []float64{float64(i) / 4, float64(j) / 4})
		}
	}
	return pts
}

func TestKCenterDeterministicAscending(t *testing.T) {
	xs, _ := surfaceData(60, 7)
	x := linalg.FromRows(xs)
	a := kCenterIndices(x, 12)
	b := kCenterIndices(x, 12)
	if len(a) != 12 {
		t.Fatalf("selected %d inducing points, want 12", len(a))
	}
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection not deterministic: %v vs %v", a, b)
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("indices not strictly ascending: %v", a)
		}
		if seen[a[i]] {
			t.Fatalf("duplicate index %d in %v", a[i], a)
		}
		seen[a[i]] = true
	}
	// m ≥ n returns every index.
	all := kCenterIndices(x, 100)
	if len(all) != 60 {
		t.Fatalf("m≥n selected %d, want all 60", len(all))
	}
}

// TestSparseMatchesExactAtFullInducing pins the m → n limit: with every
// training point inducing, FITC's correction vanishes and the sparse GP must
// agree with the exact GP on both kernels.
func TestSparseMatchesExactAtFullInducing(t *testing.T) {
	xs, ys := surfaceData(40, 1)
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		ex := New(kernel)
		if err := ex.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		sp := NewSparse(kernel)
		sp.inducingCap = len(xs)
		if err := sp.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		if len(sp.inducing) != len(xs) {
			t.Fatalf("inducing count %d, want %d", len(sp.inducing), len(xs))
		}
		for _, p := range testGrid() {
			em, es := ex.Predict(p)
			sm, ss := sp.Predict(p)
			if math.Abs(em-sm) > 1e-5 || math.Abs(es-ss) > 1e-4 {
				t.Fatalf("kernel %v at %v: exact (%v, %v) vs sparse m=n (%v, %v)",
					kernel, p, em, es, sm, ss)
			}
		}
	}
}

// TestSparseConvergesWithInducing checks the approximation tightens as the
// inducing set grows toward n.
func TestSparseConvergesWithInducing(t *testing.T) {
	xs, ys := surfaceData(80, 2)
	ex := New(SquaredExponential)
	if err := ex.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	rmse := func(m int) float64 {
		sp := NewSparse(SquaredExponential)
		sp.inducingCap = m
		if err := sp.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		var s float64
		pts := testGrid()
		for _, p := range pts {
			em, _ := ex.Predict(p)
			sm, _ := sp.Predict(p)
			s += (em - sm) * (em - sm)
		}
		return math.Sqrt(s / float64(len(pts)))
	}
	coarse, fine := rmse(8), rmse(64)
	if fine > coarse {
		t.Fatalf("sparse error grew with inducing points: m=8 %v, m=64 %v", coarse, fine)
	}
	if fine > 0.05 {
		t.Fatalf("sparse m=64 too far from exact: rmse %v", fine)
	}
}

// TestRFFConvergesToExact pins the D → ∞ limit on a fixed seed: more random
// features must shrink the gap to the exact GP posterior mean.
func TestRFFConvergesToExact(t *testing.T) {
	xs, ys := surfaceData(40, 3)
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		ex := New(kernel)
		if err := ex.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		rmse := func(D int) float64 {
			rf := rffWith(kernel, D, 9)
			rf.Hyper = ex.Hyper
			if err := rf.Fit(xs, ys, false); err != nil {
				t.Fatal(err)
			}
			var s float64
			pts := testGrid()
			for _, p := range pts {
				em, _ := ex.Predict(p)
				rm, _ := rf.Predict(p)
				s += (em - rm) * (em - rm)
			}
			return math.Sqrt(s / float64(len(pts)))
		}
		coarse, fine := rmse(64), rmse(1024)
		if fine > coarse {
			t.Fatalf("kernel %v: rff error grew with features: D=64 %v, D=1024 %v", kernel, coarse, fine)
		}
		if fine > 0.1 {
			t.Fatalf("kernel %v: rff D=1024 too far from exact: rmse %v", kernel, fine)
		}
	}
}

// TestRFFAppendMatchesFullFit: the spectrum depends only on (seed, d), so
// appending observations one at a time must land where a fresh Fit over the
// full set lands (same hyperparameters), up to rank-1-update rounding.
func TestRFFAppendMatchesFullFit(t *testing.T) {
	xs, ys := surfaceData(30, 4)
	inc := NewRFF(SquaredExponential, 5)
	if err := inc.Fit(xs[:20], ys[:20], false); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		if err := inc.Append(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	full := NewRFF(SquaredExponential, 5)
	full.Hyper = inc.Hyper
	if err := full.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	if inc.TrainingSize() != 30 || full.TrainingSize() != 30 {
		t.Fatalf("training sizes %d, %d", inc.TrainingSize(), full.TrainingSize())
	}
	for _, p := range testGrid() {
		am, as := inc.Predict(p)
		fm, fs := full.Predict(p)
		if math.Abs(am-fm) > 1e-6 || math.Abs(as-fs) > 1e-6 {
			t.Fatalf("at %v: append (%v, %v) vs full fit (%v, %v)", p, am, as, fm, fs)
		}
	}
}

func TestRFFAppendMatchesFullFitRace3(t *testing.T) { TestRFFAppendMatchesFullFit(t) }

// TestSparseAppendConditionsOnNewData: Append must actually absorb the new
// observation (frozen inducing set), pulling the posterior mean toward it.
func TestSparseAppendConditionsOnNewData(t *testing.T) {
	xs, ys := surfaceData(50, 6)
	sp := NewSparse(Matern52)
	sp.inducingCap = 25
	if err := sp.Fit(xs[:40], ys[:40], true); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 50; i++ {
		before, _ := sp.Predict(xs[i])
		if err := sp.Append(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		after, _ := sp.Predict(xs[i])
		if math.Abs(after-ys[i]) > math.Abs(before-ys[i])+1e-9 {
			t.Fatalf("append at %v moved prediction away from observation: |%v-%v| vs |%v-%v|",
				xs[i], after, ys[i], before, ys[i])
		}
	}
	if sp.TrainingSize() != 50 {
		t.Fatalf("training size %d, want 50", sp.TrainingSize())
	}
	if len(sp.inducing) != 25 {
		t.Fatalf("append must freeze the inducing set, got %d", len(sp.inducing))
	}
}

// TestUnfittedSurrogateGuards pins the shared pre-Fit contract across all
// three tiers: (0, +Inf) predictions, zero EI scores, no panics — the
// regression test for the batched-path guard fix.
func TestUnfittedSurrogateGuards(t *testing.T) {
	pts := [][]float64{{0.2, 0.8}, {0.5, 0.5}}
	for _, s := range []Surrogate{New(Matern52), NewSparse(Matern52), rffWith(Matern52, 32, 0)} {
		for _, p := range pts {
			if mu, sigma := s.Predict(p); mu != 0 || !math.IsInf(sigma, 1) {
				t.Fatalf("%s: unfitted Predict(%v) = (%v, %v), want (0, +Inf)", s.Tier(), p, mu, sigma)
			}
		}
		if ei := s.ExpectedImprovement(pts[0], 1); ei != 0 {
			t.Fatalf("%s: unfitted EI = %v, want 0", s.Tier(), ei)
		}
		scores := s.ScoreCandidates(pts, 1, nil)
		for i, v := range scores {
			if v != 0 {
				t.Fatalf("%s: unfitted ScoreCandidates[%d] = %v, want 0", s.Tier(), i, v)
			}
		}
		if err := s.Append(pts[0], 1); err == nil {
			t.Fatalf("%s: Append before Fit must error", s.Tier())
		}
		if n := s.TrainingSize(); n != 0 {
			t.Fatalf("%s: unfitted TrainingSize = %d", s.Tier(), n)
		}
	}
}

func TestSurrogateTierNames(t *testing.T) {
	if tier := New(Matern52).Tier(); tier != "exact" {
		t.Fatalf("exact tier = %q", tier)
	}
	if tier := NewSparse(Matern52).Tier(); tier != "sparse" {
		t.Fatalf("sparse tier = %q", tier)
	}
	if tier := NewRFF(Matern52, 0).Tier(); tier != "rff" {
		t.Fatalf("rff tier = %q", tier)
	}
}

func TestSurrogateFitErrors(t *testing.T) {
	cases := []struct {
		name string
		x    [][]float64
		y    []float64
	}{
		{"length mismatch", [][]float64{{1}}, []float64{1, 2}},
		{"empty", nil, nil},
		{"ragged", [][]float64{{1, 2}, {3}}, []float64{1, 2}},
	}
	for _, c := range cases {
		for _, s := range []Surrogate{NewSparse(Matern52), rffWith(Matern52, 16, 0)} {
			if err := s.Fit(c.x, c.y, false); err == nil {
				t.Fatalf("%s/%s: Fit accepted invalid training set", s.Tier(), c.name)
			}
		}
	}
	// Append dimension mismatch after a valid fit.
	xs, ys := surfaceData(10, 11)
	for _, s := range []Surrogate{NewSparse(Matern52), rffWith(Matern52, 16, 0)} {
		if err := s.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		if err := s.Append([]float64{0.5}, 1); err == nil {
			t.Fatalf("%s: Append accepted wrong dimension", s.Tier())
		}
	}
}

// TestSurrogateOptimizeSelectsHypers exercises the subset hyperparameter
// search: optimize=true must change the defaults on an informative surface
// and not degrade the fit.
func TestSurrogateOptimizeSelectsHypers(t *testing.T) {
	xs, ys := surfaceData(120, 12)
	for _, s := range []Surrogate{NewSparse(SquaredExponential), rffWith(SquaredExponential, 256, 1)} {
		if err := s.Fit(xs, ys, true); err != nil {
			t.Fatal(err)
		}
		// The tuned model should interpolate the training data sensibly.
		var worst float64
		for i, p := range xs {
			mu, _ := s.Predict(p)
			if e := math.Abs(mu - ys[i]); e > worst {
				worst = e
			}
		}
		if worst > 0.5 {
			t.Fatalf("%s: optimized fit interpolates poorly, worst abs err %v", s.Tier(), worst)
		}
	}
}

// TestExactGPBlockedRefitPath drives the exact GP past n = 256, where its
// refit once switched to a blocked factorization, and checks the serial
// factorization still conditions correctly there (training-point
// interpolation with low noise).
func TestExactGPBlockedRefitPath(t *testing.T) {
	xs, ys := surfaceData(300, 13)
	g := New(SquaredExponential)
	g.Hyper = Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.01}
	if err := g.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 37 {
		mu, _ := g.Predict(xs[i])
		if math.Abs(mu-ys[i]) > 0.05 {
			t.Fatalf("n = 300 fit interpolates poorly at %d: %v vs %v", i, mu, ys[i])
		}
	}
}

// TestSparseLCBFinite exercises the acquisition helpers on a fitted sparse
// model.
func TestSparseAcquisitions(t *testing.T) {
	xs, ys := surfaceData(30, 14)
	sp := NewSparse(SquaredExponential)
	sp.inducingCap = 12
	if err := sp.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	rf := NewRFF(SquaredExponential, 2)
	if err := rf.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Surrogate{sp, rf} {
		p := []float64{0.3, 0.7}
		if ei := s.ExpectedImprovement(p, 2); !(ei >= 0) || math.IsInf(ei, 0) {
			t.Fatalf("%s: EI = %v", s.Tier(), ei)
		}
		scores := s.ScoreCandidates([][]float64{p, {0.1, 0.1}}, 2, make([]float64, 1))
		if len(scores) != 2 {
			t.Fatalf("%s: ScoreCandidates len %d", s.Tier(), len(scores))
		}
	}
}

// TestForwardVarianceMatchesFullSolve: Predict takes the posterior variance
// from the forward substitution alone (‖L⁻¹k*‖²). It must equal the full-solve
// formula k*ᵀK⁻¹k* to 1e-9 in standardized units on random training sets at
// small, frozen-hyperparameter and tier-boundary sizes, on both kernels, and
// never fall below the 1e-12 floor.
func TestForwardVarianceMatchesFullSolve(t *testing.T) {
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		for _, n := range []int{5, 60, 160} {
			xs, ys := goldenData(n, 4, int64(100+n))
			g := New(kernel)
			if err := g.Fit(xs, ys, n <= 60); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			ks, v := make([]float64, n), make([]float64, n)
			for trial := 0; trial < 50; trial++ {
				p := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
				if trial%10 == 0 {
					p = xs[trial%n] // a training point: the variance is near its floor
				}
				_, sigma := g.Predict(p)
				got := (sigma / g.yStd) * (sigma / g.yStd)
				g.kernelVecInto(ks, p)
				g.chol.SolveVecInto(v, ks)
				want := math.Max(g.Hyper.SignalVar-linalg.Dot(ks, v), 1e-12)
				if math.Abs(got-want) > 1e-9 || got < 1e-12*(1-1e-9) {
					t.Fatalf("kernel %v n=%d at %v: forward-only variance %v, full solve %v", kernel, n, p, got, want)
				}
			}
		}
	}
}

// TestSparseAppendMatchesFullFit: 15 observations absorbed one rank-1 update
// at a time must land where a full conditioning on the same inducing set and
// hyperparameters lands, up to rank-1-update rounding.
func TestSparseAppendMatchesFullFit(t *testing.T) {
	xs, ys := surfaceData(55, 4)
	inc := NewSparse(Matern52)
	inc.inducingCap = 20
	if err := inc.Fit(xs[:40], ys[:40], true); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 55; i++ {
		if err := inc.Append(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	full := NewSparse(Matern52)
	full.Hyper = inc.Hyper
	if _, err := full.load(xs, ys, 0); err != nil {
		t.Fatal(err)
	}
	full.inducing = inc.inducing
	if err := full.refit(); err != nil {
		t.Fatal(err)
	}
	if inc.TrainingSize() != 55 || full.TrainingSize() != 55 {
		t.Fatalf("training sizes %d, %d", inc.TrainingSize(), full.TrainingSize())
	}
	for _, p := range testGrid() {
		am, as := inc.Predict(p)
		fm, fs := full.Predict(p)
		if math.Abs(am-fm) > 1e-6 || math.Abs(as-fs) > 1e-6 {
			t.Fatalf("at %v: append (%v, %v) vs full conditioning (%v, %v)", p, am, as, fm, fs)
		}
	}
}

func TestSparseAppendMatchesFullFitRace3(t *testing.T) { TestSparseAppendMatchesFullFit(t) }

// TestAppendAndPredictAllocateNothing: inside the capacity Fit reserves, the
// sparse and RFF Appends grow the model in place, and every tier's Predict
// runs on per-instance workspaces. The exact tier's Append is a Fit of the
// grown set, which allocates.
func TestAppendAndPredictAllocateNothing(t *testing.T) {
	xs, ys := surfaceData(320, 5)
	p := []float64{0.3, 0.7}
	for _, s := range []Surrogate{New(Matern52), NewSparse(Matern52), NewRFF(Matern52, 1)} {
		if err := s.Fit(xs[:300], ys[:300], false); err != nil {
			t.Fatal(err)
		}
		if s.Tier() != "exact" {
			next := 300
			if n := testing.AllocsPerRun(15, func() {
				if err := s.Append(xs[next], ys[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}); n != 0 {
				t.Errorf("%s: Append allocates %v times a call", s.Tier(), n)
			}
		}
		if n := testing.AllocsPerRun(20, func() { s.Predict(p) }); n != 0 {
			t.Errorf("%s: Predict allocates %v times a call", s.Tier(), n)
		}
	}
}

// duplicatedData is 200 rows over 20 distinct points — the shape a session
// produces when a wrapper re-evaluates configurations.
func duplicatedData() ([][]float64, []float64) {
	base, _ := surfaceData(20, 15)
	xs := make([][]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = base[i%20]
		ys[i] = testSurface(xs[i])
	}
	return xs, ys
}

// TestKCenterNeverRepeatsAnIndex: with fewer distinct rows than m the
// selection stops at the distinct count instead of "selecting" coincident
// points at distance 0.
func TestKCenterNeverRepeatsAnIndex(t *testing.T) {
	xs, _ := duplicatedData()
	got := kCenterIndices(linalg.FromRows(xs), 64)
	if len(got) != 20 {
		t.Fatalf("selected %d indices %v, want the 20 distinct points", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("indices repeat or descend: %v", got)
		}
	}
}

func TestKCenterNeverRepeatsAnIndexRace3(t *testing.T) { TestKCenterNeverRepeatsAnIndex(t) }

// TestSparseOnDuplicatedPointsMatchesExact: the inducing set shrinks to the
// distinct points, Kmm needs no rescue jitter, and — every distinct location
// inducing — the sparse posterior agrees with the exact GP's.
func TestSparseOnDuplicatedPointsMatchesExact(t *testing.T) {
	xs, ys := duplicatedData()
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		ex := New(kernel)
		if err := ex.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		sp := NewSparse(kernel)
		if err := sp.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		if len(sp.inducing) != 20 || sp.jitterKmm != 0 {
			t.Fatalf("kernel %v: %d inducing points, Kmm jitter %v; want 20 and 0", kernel, len(sp.inducing), sp.jitterKmm)
		}
		for _, p := range testGrid() {
			em, es := ex.Predict(p)
			sm, ss := sp.Predict(p)
			if math.Abs(em-sm) > 1e-5 || math.Abs(es-ss) > 1e-4 {
				t.Fatalf("kernel %v at %v: exact (%v, %v) vs sparse (%v, %v)", kernel, p, em, es, sm, ss)
			}
		}
	}
}

// TestNonFiniteObservationsAreRefused: one ±Inf or NaN target (or input
// coordinate) used to make every tier fit without complaint and then predict
// (NaN, NaN) for good. Fit and Append must return an error instead, and a
// refused Append must leave the model as it was.
func TestNonFiniteObservationsAreRefused(t *testing.T) {
	xs, ys := surfaceData(30, 16)
	p := []float64{0.4, 0.6}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, mk := range []func() Surrogate{
			func() Surrogate { return New(Matern52) },
			func() Surrogate { return NewSparse(Matern52) },
			func() Surrogate { return rffWith(Matern52, 32, 1) },
		} {
			s := mk()
			badY := append(append([]float64(nil), ys[:29]...), bad)
			if err := s.Fit(xs, badY, false); err == nil {
				t.Fatalf("%s: Fit accepted y = %v", s.Tier(), bad)
			}
			if mu, sigma := s.Predict(p); mu != 0 || !math.IsInf(sigma, 1) {
				t.Fatalf("%s: Predict after a refused Fit = (%v, %v), want (0, +Inf)", s.Tier(), mu, sigma)
			}
			badX := append(append([][]float64(nil), xs[:29]...), []float64{0.5, bad})
			if err := s.Fit(badX, ys, false); err == nil {
				t.Fatalf("%s: Fit accepted x = %v", s.Tier(), bad)
			}
			if err := s.Fit(xs[:29], ys[:29], false); err != nil {
				t.Fatal(err)
			}
			mu0, sigma0 := s.Predict(p)
			if err := s.Append(xs[29], bad); err == nil {
				t.Fatalf("%s: Append accepted y = %v", s.Tier(), bad)
			}
			if err := s.Append([]float64{bad, 0.5}, ys[29]); err == nil {
				t.Fatalf("%s: Append accepted x = %v", s.Tier(), bad)
			}
			if mu, sigma := s.Predict(p); mu != mu0 || sigma != sigma0 || s.TrainingSize() != 29 {
				t.Fatalf("%s: a refused Append changed the model: (%v, %v) vs (%v, %v), n = %d",
					s.Tier(), mu, sigma, mu0, sigma0, s.TrainingSize())
			}
			if err := s.Append(xs[29], ys[29]); err != nil {
				t.Fatalf("%s: Append after a refused one: %v", s.Tier(), err)
			}
		}
	}
}

func TestNonFiniteObservationsAreRefusedRace3(t *testing.T) { TestNonFiniteObservationsAreRefused(t) }
