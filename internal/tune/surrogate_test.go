package tune

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx/gp"
)

func TestSurrogateSelectorTierFor(t *testing.T) {
	sched := NewSurrogateSelector(nil)
	cases := []struct {
		n, d int
		want string
	}{
		{10, 4, SurrogateExact},
		{160, 4, SurrogateExact}, // at the threshold: still exact
		{161, 4, SurrogateSparse},
		{1500, 4, SurrogateSparse},
		{1501, 4, SurrogateRFF},
		{160, 40, SurrogateExact},
		{161, 33, SurrogateRFF}, // high dimension prefers RFF
		{161, 32, SurrogateSparse},
	}
	for _, c := range cases {
		if got := sched.TierFor(c.n, c.d); got != c.want {
			t.Errorf("TierFor(%d, %d) = %q, want %q", c.n, c.d, got, c.want)
		}
	}
}

// TestSurrogateSelectorDefaults checks that the config a caller hands the
// selector, nil or empty, leaves the one schedule's switches where they are.
func TestSurrogateSelectorDefaults(t *testing.T) {
	for _, cfg := range []*SurrogateConfig{nil, {}} {
		sel := NewSurrogateSelector(cfg)
		for _, c := range []struct {
			n    int
			want string
		}{{160, SurrogateExact}, {161, SurrogateSparse}, {1500, SurrogateSparse}, {1501, SurrogateRFF}} {
			if got := sel.TierFor(c.n, 4); got != c.want {
				t.Errorf("NewSurrogateSelector(%v).TierFor(%d, 4) = %q, want %q", cfg, c.n, got, c.want)
			}
		}
	}
}

func TestSurrogateSelectorNew(t *testing.T) {
	sel := NewSurrogateSelector(nil)
	for _, tier := range []string{SurrogateExact, SurrogateSparse, SurrogateRFF} {
		if got := sel.New(gp.Matern52, tier, 1).Tier(); got != tier {
			t.Errorf("New(%s).Tier() = %q", tier, got)
		}
	}
	if s := sel.New(gp.Matern52, SurrogateRFF, 7).(*gp.RFF).Seed; s != 7 {
		t.Errorf("rff Seed = %d, want 7", s)
	}
}

// describe names a model's tier and size for a failure message.
func describe(m gp.Surrogate) string {
	if m == nil {
		return "no model"
	}
	return fmt.Sprintf("a %s model over %d rows", m.Tier(), m.TrainingSize())
}

// refusingAppend is a fitted surrogate whose next Append fails.
type refusingAppend struct{ gp.Surrogate }

func (refusingAppend) Append([]float64, float64) error { return errors.New("refused") }

// TestSurrogateModelLifecycle walks one history across the schedule's two
// size switches in rounds of four observations and checks every Sync against
// the rule: the exact tier is rebuilt every call; a sparse or RFF model is
// rebuilt at a tier change, after SetPrior, once the appended tail has reached
// a quarter of its hyper-search subset, and after a refused Append — in the
// same round — and is appended to, the same instance returned, everywhere in
// between. A prior block carries the history to each switch: 148 rows put the
// first rounds at n = 152–160 and the switch to sparse at 164; 1 460 rows
// then put the model in the sparse tier at n = 1 496 and the switch to RFF at
// 1 504.
func TestSurrogateModelLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	point := func() ([]float64, float64) {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		return x, math.Sin(3*x[0]) + x[1]*x[2]
	}
	lm := NewSurrogateModel(gp.Matern52, 1)
	n := 0 // prior rows and observations
	grow := func(k int) {
		for i := 0; i < k; i++ {
			if !lm.Observe(point()) {
				t.Fatal("a finite observation was refused")
			}
			n++
		}
	}
	if lm.Sync(math.MaxInt) != nil || lm.Model() != nil {
		t.Fatal("Sync on an empty history must report no model")
	}
	var last gp.Surrogate
	fitN, prior := 0, 0
	for _, phase := range []struct{ prior, rounds int }{{148, 8}, {1460, 10}} {
		xs, ys := make([][]float64, phase.prior), make([]float64, phase.prior)
		for i := range xs {
			xs[i], ys[i] = point()
		}
		lm.SetPrior(xs, ys)
		n += phase.prior - prior
		prior, last = phase.prior, nil // SetPrior: the next Sync rebuilds
		for round := 0; round < phase.rounds; round++ {
			grow(4)
			wantTier, limit := SurrogateExact, 0
			if n > 1500 {
				wantTier, limit = SurrogateRFF, gp.DefaultInducing/4
			} else if n > 160 {
				wantTier, limit = SurrogateSparse, gp.DefaultInducing/4
			}
			wantRebuild := last == nil || last.Tier() != wantTier || last.TrainingSize()-fitN >= limit
			if n == 1512 { // an RFF append round, by the rule — until the model refuses
				if wantRebuild {
					t.Fatal("n = 1512 was meant to be an append round")
				}
				lm.model = refusingAppend{last}
				wantRebuild = true
			}
			m := lm.Sync(math.MaxInt)
			if m == nil || m != lm.Model() || m.Tier() != wantTier || m.TrainingSize() != n {
				t.Fatalf("n=%d: got %s, want a model of the %s tier over all %d rows", n, describe(m), wantTier, n)
			}
			if rebuilt := m != last; rebuilt != wantRebuild {
				t.Fatalf("n=%d (%s, last fit at %d): rebuilt = %v, want %v", n, wantTier, fitN, rebuilt, wantRebuild)
			}
			if m != last {
				fitN = n
			}
			last = m
		}
	}
	if fitN != 1532 || last.Tier() != SurrogateRFF {
		t.Fatalf("the walk ended on a %s model last fitted at n = %d, want rff at 1532", last.Tier(), fitN)
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
	if xs, _ := lm.Observations(); len(xs) != n-prior || lm.Sync(math.MaxInt) != last {
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
		t.Fatalf("Sync after a failed round: got %s, want a rebuilt model", describe(m))
	}
}

func TestSurrogateModelLifecycleRace3(t *testing.T) { TestSurrogateModelLifecycle(t) }

// TestSurrogateModelAtTheSwitches drives a model across each switch of the
// schedule — exact → sparse at n = 161, sparse → RFF at n = 1 501 and exact →
// RFF at n = 161 with d = 33 — on two inputs real tuning produces: a constant
// objective, and a few configurations measured over and over. A prior block
// (SetPrior) brings the history to one row short of the switch and Observe
// crosses it. On both sides Sync returns a model of the scheduled tier whose
// Predict is finite, and Acquire returns points of the unit cube.
func TestSurrogateModelAtTheSwitches(t *testing.T) {
	switches := []struct {
		name     string
		d, last  int // the switch lies between n = last and last+1
		from, to string
	}{
		{"exact-sparse", 4, 160, SurrogateExact, SurrogateSparse},
		{"sparse-rff", 4, 1500, SurrogateSparse, SurrogateRFF},
		{"exact-rff-d33", 33, 160, SurrogateExact, SurrogateRFF},
	}
	histories := []struct {
		name  string
		point func(rng *rand.Rand, repeated [][]float64, i int) ([]float64, float64)
	}{
		{"constant", func(rng *rand.Rand, repeated [][]float64, _ int) ([]float64, float64) {
			x := make([]float64, len(repeated[0]))
			for j := range x {
				x[j] = rng.Float64()
			}
			return x, 7
		}},
		{"repeated", func(_ *rand.Rand, repeated [][]float64, i int) ([]float64, float64) {
			return repeated[i%len(repeated)], float64(i%len(repeated)) + 0.01*float64(i%7)
		}},
	}
	for _, sw := range switches {
		for _, h := range histories {
			t.Run(sw.name+"/"+h.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				repeated := make([][]float64, 3)
				for i := range repeated {
					repeated[i] = make([]float64, sw.d)
					for j := range repeated[i] {
						repeated[i][j] = rng.Float64()
					}
				}
				xs, ys := make([][]float64, sw.last-1), make([]float64, sw.last-1)
				for i := range xs {
					xs[i], ys[i] = h.point(rng, repeated, i)
				}
				m := NewSurrogateModel(gp.Matern52, 1)
				m.SetPrior(xs, ys)
				for i, tier := range []string{sw.from, sw.to} {
					if !m.Observe(h.point(rng, repeated, sw.last-1+i)) {
						t.Fatal("a finite observation was refused")
					}
					n := sw.last + i
					model := m.Sync(80)
					if model == nil || model.Tier() != tier || model.TrainingSize() != n {
						t.Fatalf("n=%d: Sync returned %s, want a model of the %s tier over %d rows", n, describe(model), tier, n)
					}
					probes := append([][]float64{xs[0], repeated[0]}, m.Acquire(4, nil, 20, rng)...)
					for k, p := range probes {
						for _, v := range p {
							if k >= 2 && !(v >= 0 && v <= 1) {
								t.Fatalf("n=%d: Acquire returned %v, outside the unit cube", n, p)
							}
						}
						if mu, sigma := model.Predict(p); !finite(mu) || !finite(sigma) {
							t.Fatalf("n=%d: Predict(%v) = (%v, %v), want finite", n, p, mu, sigma)
						}
					}
				}
			})
		}
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
		m := NewSurrogateModel(gp.Matern52, 1)
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
		m := NewSurrogateModel(gp.Matern52, 1)
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

func TestAcquireRoundRace3(t *testing.T) { TestAcquireRound(t) }
