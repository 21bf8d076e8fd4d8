package tune

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx/gp"
)

func TestSurrogateConfigValidate(t *testing.T) {
	good := []*SurrogateConfig{
		nil,
		{},
		{Tier: SurrogateAuto},
		{Tier: SurrogateExact},
		{Tier: SurrogateSparse, Inducing: 32},
		{Tier: SurrogateRFF, Features: 64},
		{SparseAbove: 100, RFFAbove: 1000},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []*SurrogateConfig{
		{Tier: "kriging"},
		{SparseAbove: -1},
		{Inducing: -5},
		{SparseAbove: 500, RFFAbove: 100},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestSurrogateSelectorTierFor(t *testing.T) {
	auto := NewSurrogateSelector(nil)
	cases := []struct {
		n, d int
		want string
	}{
		{10, 4, SurrogateExact},
		{160, 4, SurrogateExact}, // at the threshold: still exact
		{161, 4, SurrogateSparse},
		{1500, 4, SurrogateSparse},
		{1501, 4, SurrogateRFF},
		{200, 40, SurrogateRFF}, // high dimension prefers RFF
	}
	for _, c := range cases {
		if got := auto.TierFor(c.n, c.d); got != c.want {
			t.Errorf("auto TierFor(%d, %d) = %q, want %q", c.n, c.d, got, c.want)
		}
	}
	// Forced tiers ignore size.
	forced := NewSurrogateSelector(&SurrogateConfig{Tier: SurrogateRFF})
	if got := forced.TierFor(3, 2); got != SurrogateRFF {
		t.Errorf("forced TierFor = %q, want rff", got)
	}
	// Custom thresholds.
	custom := NewSurrogateSelector(&SurrogateConfig{SparseAbove: 8, RFFAbove: 20})
	if got := custom.TierFor(9, 2); got != SurrogateSparse {
		t.Errorf("custom TierFor(9) = %q, want sparse", got)
	}
	if got := custom.TierFor(21, 2); got != SurrogateRFF {
		t.Errorf("custom TierFor(21) = %q, want rff", got)
	}
}

func TestSurrogateSelectorDefaults(t *testing.T) {
	cfg := NewSurrogateSelector(nil).Config()
	if cfg.Tier != SurrogateAuto || cfg.SparseAbove != 160 || cfg.RFFAbove != 1500 ||
		cfg.Inducing != 64 || cfg.Features != 128 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Partial configs keep explicit fields and fill the rest.
	cfg = NewSurrogateSelector(&SurrogateConfig{SparseAbove: 40}).Config()
	if cfg.SparseAbove != 40 || cfg.RFFAbove != 1500 {
		t.Fatalf("partial defaults = %+v", cfg)
	}
}

func TestSurrogateSelectorNew(t *testing.T) {
	sel := NewSurrogateSelector(&SurrogateConfig{Inducing: 16, Features: 32})
	if got := sel.New(gp.Matern52, SurrogateExact, 1).Tier(); got != "exact" {
		t.Errorf("New(exact).Tier() = %q", got)
	}
	sp := sel.New(gp.Matern52, SurrogateSparse, 1)
	if got := sp.Tier(); got != "sparse" {
		t.Errorf("New(sparse).Tier() = %q", got)
	}
	if m := sp.(*gp.SparseGP).MaxInducing; m != 16 {
		t.Errorf("sparse MaxInducing = %d, want 16", m)
	}
	rf := sel.New(gp.Matern52, SurrogateRFF, 7)
	if got := rf.Tier(); got != "rff" {
		t.Errorf("New(rff).Tier() = %q", got)
	}
	if d := rf.(*gp.RFF).Features; d != 32 {
		t.Errorf("rff Features = %d, want 32", d)
	}
	if s := rf.(*gp.RFF).Seed; s != 7 {
		t.Errorf("rff Seed = %d, want 7", s)
	}
}

// refusingAppend is a fitted surrogate whose next Append fails.
type refusingAppend struct{ gp.Surrogate }

func (refusingAppend) Append([]float64, float64) error { return errors.New("refused") }

// TestSurrogateModelLifecycle walks one history through the three tiers in
// rounds of four observations and checks every Sync against the rule: the
// exact tier is rebuilt every call; a sparse or RFF model is rebuilt at a tier
// change, once the appended tail has reached a quarter of its hyper-search
// subset, and after a refused Append — in the same round — and is appended to,
// the same instance returned, everywhere in between.
func TestSurrogateModelLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Sparse above 12 with a 16-point subset (tail limit 4: one appended round
	// of four reaches it); RFF above 40 with its fixed 64-point subset (limit
	// 16: four appended rounds).
	lm := NewSurrogateModel(&SurrogateConfig{SparseAbove: 12, RFFAbove: 40, Inducing: 16, Features: 32}, gp.Matern52, 1)
	n := 0
	grow := func(k int) {
		for i := 0; i < k; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			if !lm.Observe(x, math.Sin(3*x[0])+x[1]*x[2]) {
				t.Fatal("a finite observation was refused")
			}
			n++
		}
	}
	if lm.Sync(math.MaxInt) != nil || lm.Model() != nil {
		t.Fatal("Sync on an empty history must report no model")
	}
	var last gp.Surrogate
	fitN := 0
	for round := 0; round < 22; round++ {
		grow(4)
		wantTier := SurrogateExact
		if n > 40 {
			wantTier = SurrogateRFF
		} else if n > 12 {
			wantTier = SurrogateSparse
		}
		limit := map[string]int{SurrogateExact: 0, SurrogateSparse: 4, SurrogateRFF: 16}[wantTier]
		wantRebuild := last == nil || last.Tier() != wantTier || last.TrainingSize()-fitN >= limit
		if round == 19 { // an RFF append round, by the rule — until the model refuses
			if wantRebuild {
				t.Fatal("round 19 was meant to be an append round")
			}
			lm.model = refusingAppend{last}
			wantRebuild = true
		}
		m := lm.Sync(math.MaxInt)
		if m == nil || m != lm.Model() || m.Tier() != wantTier || m.TrainingSize() != n {
			t.Fatalf("round %d (n=%d): got %v, want a %s model over all %d observations", round, n, m, wantTier, n)
		}
		if rebuilt := m != last; rebuilt != wantRebuild {
			t.Fatalf("round %d (n=%d, %s, tail %d): rebuilt = %v, want %v",
				round, n, wantTier, last.TrainingSize()-fitN, rebuilt, wantRebuild)
		}
		if m != last {
			fitN = n
		}
		last = m
	}
	// Nothing new: the same instance, whatever the tail.
	if m := lm.Sync(math.MaxInt); m != last {
		t.Fatal("Sync with nothing new must return the model it has")
	}
	// A non-finite observation never enters the history ...
	for _, y := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if lm.Observe([]float64{.5, .5, .5}, y) {
			t.Fatalf("Observe accepted %v", y)
		}
	}
	if xs, _ := lm.Observations(); len(xs) != n || lm.Sync(math.MaxInt) != last {
		t.Fatal("a refused observation changed the history")
	}
	// ... and a history the tiers refuse all the same (here: forced in behind
	// Observe's back) means no model this round, a rebuild the next.
	grow(1)
	lm.ys[len(lm.ys)-1] = math.Inf(1)
	if lm.Sync(math.MaxInt) != nil || lm.Model() != nil {
		t.Fatal("Sync over a non-finite observation must report no model")
	}
	lm.ys[len(lm.ys)-1] = 1
	if m := lm.Sync(math.MaxInt); m == nil || m == last || m.TrainingSize() != n {
		t.Fatalf("Sync after a failed round: got %v, want a rebuilt model", m)
	}
}

// peakEI is a stub surrogate whose expected improvement is a bump of the
// given height around c (0 = no positive EI anywhere); Acquire calls nothing
// but the two scoring methods.
type peakEI struct {
	gp.Surrogate
	c      []float64
	height float64
}

func (s peakEI) ExpectedImprovement(p []float64, _ float64) float64 {
	return s.height * math.Exp(-sqDist(p, s.c)/(2*0.2*0.2))
}

func (s peakEI) ScoreCandidates(points [][]float64, best float64, dst []float64) []float64 {
	dst = dst[:0]
	for _, p := range points {
		dst = append(dst, s.ExpectedImprovement(p, best))
	}
	return dst
}

// TestAcquireRound checks the one acquisition round every GP consumer runs,
// on a fitted model and on stubs that pin each branch.
func TestAcquireRound(t *testing.T) {
	const d = 5
	base := []float64{0.11, 0.22, 0.33, 0.44, 0.55}
	identity := []int{0, 1, 2, 3, 4}
	fitted := func() *SurrogateModel {
		m := NewSurrogateModel(nil, gp.Matern52, 1)
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 12; i++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = rng.Float64()
			}
			m.Observe(x, 1+sqDist(x, base))
		}
		m.Observe(base, 1)
		if m.Sync(60) == nil {
			t.Fatal("no model over 13 clean observations")
		}
		return m
	}
	stub := func(height float64) *SurrogateModel {
		m := NewSurrogateModel(nil, gp.Matern52, 1)
		m.Observe(base, 1)
		m.model = peakEI{c: []float64{0.7, 0.7, 0.7, 0.7, 0.7}, height: height}
		return m
	}
	for _, c := range []struct {
		name   string
		model  func() *SurrogateModel
		k      int
		active []int
	}{
		{"fitted/all", fitted, 4, nil},
		{"fitted/identity", fitted, 4, identity},
		{"fitted/subspace", fitted, 3, []int{3, 1}},
		{"fitted/one", fitted, 1, []int{4}},
		{"peak/subspace", func() *SurrogateModel { return stub(1) }, 2, []int{0, 2, 4}},
		{"flat/subspace", func() *SurrogateModel { return stub(0) }, 3, []int{2, 0}},
	} {
		got := c.model().Acquire(c.k, c.active, 50, rand.New(rand.NewSource(21)))
		if len(got) != c.k {
			t.Fatalf("%s: %d points, want exactly %d", c.name, len(got), c.k)
		}
		searched := map[int]bool{}
		for _, a := range c.active {
			searched[a] = true
		}
		for i, x := range got {
			if len(x) != d {
				t.Fatalf("%s: point %d has %d coordinates, want %d", c.name, i, len(x), d)
			}
			for j, v := range x {
				if !(v >= 0 && v <= 1) {
					t.Errorf("%s: point %d leaves the unit cube: %v", c.name, i, x)
				}
				if c.active != nil && !searched[j] && v != base[j] {
					t.Errorf("%s: point %d moved coordinate %d (%v, best point has %v) outside active %v", c.name, i, j, v, base[j], c.active)
				}
			}
		}
	}

	// The spread penalty: on a single-peaked acquisition surface the first pick
	// polishes onto the peak and the second, scored under the penalty of the
	// first, is pushed off it.
	picks := stub(1).Acquire(2, nil, 200, rand.New(rand.NewSource(21)))
	peak := []float64{0.7, 0.7, 0.7, 0.7, 0.7}
	if d1, d2 := math.Sqrt(sqDist(picks[0], peak)), math.Sqrt(sqDist(picks[1], picks[0])); d1 > 0.05 || d2 < 0.1 {
		t.Errorf("first pick %.3f from the peak (want < 0.05), second %.3f from the first (want pushed > 0.1 away)", d1, d2)
	}

	// No positive EI anywhere: every pick is a uniform draw, and the RNG is
	// consumed in the documented order — screenPool × len(active) draws for
	// the pool, then len(active) per pick.
	active := []int{2, 0}
	explored := stub(0).Acquire(3, active, 50, rand.New(rand.NewSource(21)))
	ref := rand.New(rand.NewSource(21))
	for i := 0; i < screenPool*len(active); i++ {
		ref.Float64()
	}
	for i, x := range explored {
		for _, a := range active {
			if want := ref.Float64(); x[a] != want {
				t.Fatalf("explore pick %d coordinate %d = %v, want the RNG's next draw %v", i, a, x[a], want)
			}
		}
	}

	// Every dimension active is the sub-space path fed the identity index set:
	// same points, same RNG state after — iTuned is a special case of the round
	// OtterTune runs, not a fork of it.
	rngAll, rngID := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	all, id := fitted().Acquire(4, nil, 60, rngAll), fitted().Acquire(4, identity, 60, rngID)
	for i := range all {
		for j := range all[i] {
			if math.Float64bits(all[i][j]) != math.Float64bits(id[i][j]) {
				t.Fatalf("point %d: all-active %v != identity %v", i, all[i], id[i])
			}
		}
	}
	if rngAll.Float64() != rngID.Float64() {
		t.Error("all-active and identity rounds consumed different numbers of RNG draws")
	}
}
