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
	var xs [][]float64
	var ys []float64
	grow := func(k int) {
		for i := 0; i < k; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			xs = append(xs, x)
			ys = append(ys, math.Sin(3*x[0])+x[1]*x[2])
		}
	}
	// Sparse above 12 with a 16-point subset (tail limit 4: one appended round
	// of four reaches it); RFF above 40 with its fixed 64-point subset (limit
	// 16: four appended rounds).
	lm := NewSurrogateModel(&SurrogateConfig{SparseAbove: 12, RFFAbove: 40, Inducing: 16, Features: 32}, gp.Matern52, 1)
	if lm.Sync(nil, nil, true) != nil || lm.Model() != nil {
		t.Fatal("Sync on an empty history must report no model")
	}
	var last gp.Surrogate
	fitN := 0
	for round := 0; round < 22; round++ {
		grow(4)
		n := len(xs)
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
		m := lm.Sync(xs, ys, true)
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
	// A history the tiers refuse: no model this round, a rebuild the next.
	xs, ys = append(xs, xs[0]), append(ys, math.Inf(1))
	if lm.Sync(xs, ys, true) != nil || lm.Model() != nil {
		t.Fatal("Sync over a non-finite observation must report no model")
	}
	ys[len(ys)-1] = 1
	if m := lm.Sync(xs, ys, true); m == nil || m == last || m.TrainingSize() != len(xs) {
		t.Fatalf("Sync after a failed round: got %v, want a rebuilt model", m)
	}
}
