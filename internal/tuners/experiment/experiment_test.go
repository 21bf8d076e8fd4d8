package experiment

import (
	"context"
	"math"
	"testing"

	"repro/internal/mathx/gp"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/workload"
)

func testTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

func inUnitCube(t *testing.T, cfg tune.Config) {
	t.Helper()
	for _, v := range cfg.Vector() {
		if v < 0 || v > 1 {
			t.Fatalf("coordinate %v outside the unit cube", v)
		}
	}
}

func TestRandomProposerStreamsAndIsDeterministic(t *testing.T) {
	target := testTarget(1)
	b := tune.Budget{Trials: 10}
	mk := func() tune.Proposer {
		p, err := (&Random{Seed: 5}).NewProposer(target, b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, c := mk(), mk()
	got := a.Propose(6)
	if len(got) != 6 {
		t.Fatalf("Propose(6) returned %d configs", len(got))
	}
	other := c.Propose(6)
	for i := range got {
		inUnitCube(t, got[i])
		if got[i].String() != other[i].String() {
			t.Fatalf("same seed proposed different configs at %d", i)
		}
	}
	// Observation must not perturb the stream.
	a.Observe(tune.Trial{N: 1, Config: got[0], Result: tune.Result{Time: 1}})
	if a.Propose(1)[0].String() != c.Propose(1)[0].String() {
		t.Fatal("Observe changed the proposal stream")
	}
}

func TestGridProposerCoversFactorialDesign(t *testing.T) {
	target := testTarget(2)
	space := target.Space()
	b := tune.Budget{Trials: 30} // 3 levels over 3 knobs (floor(30^(1/3)) = 3)
	p, err := (&Grid{}).NewProposer(target, b)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := p.Propose(100)
	if len(cfgs) != 27 {
		t.Fatalf("grid proposed %d points, want 27", len(cfgs))
	}
	// Non-swept parameters stay at their defaults.
	swept := map[string]bool{}
	for _, name := range space.ByImpact()[:3] {
		swept[name] = true
	}
	def := space.Default()
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		seen[cfg.String()] = true
		for _, prm := range space.Params() {
			if !swept[prm.Name] && cfg.Native(prm.Name) != def.Native(prm.Name) {
				t.Fatalf("parameter %s moved off its default in a grid point", prm.Name)
			}
		}
	}
	if len(seen) != 27 {
		t.Fatalf("grid proposed %d distinct points, want 27", len(seen))
	}
	if more := p.Propose(10); len(more) != 0 {
		t.Fatalf("exhausted grid proposed %d more points", len(more))
	}
}

func TestITunedProposerPhases(t *testing.T) {
	target := testTarget(3)
	b := tune.Budget{Trials: 30}
	it := NewITuned(9)
	p, err := it.NewProposer(target, b)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: the Latin-hypercube design arrives as one batch.
	init := p.Propose(30)
	if len(init) != 10 { // min(10, 30/3)
		t.Fatalf("LHS init proposed %d points, want 10", len(init))
	}
	for i, cfg := range init {
		inUnitCube(t, cfg)
		p.Observe(tune.Trial{N: i + 1, Config: cfg, Result: tune.Result{Time: float64(100 + i)}})
	}
	// Phase 2: GP rounds propose at most Batch candidates, all distinct.
	round := p.Propose(20)
	if len(round) == 0 || len(round) > 4 {
		t.Fatalf("GP round proposed %d candidates, want 1..4", len(round))
	}
	seen := map[string]bool{}
	for _, cfg := range round {
		inUnitCube(t, cfg)
		seen[cfg.String()] = true
	}
	if len(seen) != len(round) {
		t.Fatalf("GP round proposed duplicate candidates: %v", round)
	}
	// A budget headroom of 1 caps the batch.
	for i, cfg := range round {
		p.Observe(tune.Trial{N: 11 + i, Config: cfg, Result: tune.Result{Time: 90}})
	}
	if got := p.Propose(1); len(got) != 1 {
		t.Fatalf("Propose(1) returned %d candidates", len(got))
	}
}

// drive runs p against target for the given number of trials the way
// tune.Drive would (whole batches, observed in order), calling round before
// each Propose past the design phase, and returns the best time seen.
func drive(t *testing.T, p *itunedProposer, target tune.Target, trials int, round func(n int)) float64 {
	t.Helper()
	best := math.Inf(1)
	for n := 0; n < trials; {
		if len(p.pending) == 0 && round != nil {
			round(n)
		}
		batch := p.Propose(trials - n)
		if len(batch) == 0 {
			t.Fatalf("no proposal after %d trials", n)
		}
		for _, cfg := range batch {
			n++
			res := target.Run(cfg)
			if res.Time < best {
				best = res.Time
			}
			p.Observe(tune.Trial{N: n, Config: cfg, Result: res})
		}
	}
	return best
}

func newITunedProposer(t *testing.T, it *ITuned, target tune.Target, trials int) *itunedProposer {
	t.Helper()
	p, err := it.NewProposer(target, tune.Budget{Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	return p.(*itunedProposer)
}

// TestITunedAppendsBetweenRebuilds: past the sparse threshold the model
// persists — most rounds absorb their observations into the surrogate of the
// round before, the rest rebuild it — and a 200-trial session still improves
// on its design phase.
func TestITunedAppendsBetweenRebuilds(t *testing.T) {
	target := testTarget(6)
	p := newITunedProposer(t, NewITuned(6), target, 200)
	design := drive(t, p, target, len(p.pending), nil)
	var last gp.Surrogate
	appends, rebuilds := 0, 0
	seen, _, _ := observed(p.model)
	best := drive(t, p, target, 200-seen, func(int) {
		m := p.model.Model()
		if m != nil && m.Tier() == tune.SurrogateSparse {
			if m == last {
				appends++
			} else {
				rebuilds++
			}
		}
		last = m
	})
	if rebuilds < 2 || appends <= rebuilds {
		t.Errorf("sparse rounds: %d appended, %d rebuilt; want mostly appends and at least 2 rebuilds", appends, rebuilds)
	}
	if n, _, _ := observed(p.model); p.model.Model() == nil || p.model.Model().TrainingSize() >= n {
		t.Errorf("the last round's model should hold all but the last batch of %d observations", n)
	}
	if best >= design {
		t.Errorf("200 trials did not improve on the design phase: %v vs %v", best, design)
	}
}

// observed returns how many observations the proposer's model accepted, and
// the best of them.
func observed(m *tune.SurrogateModel) (n int, bestX []float64, incumbent float64) {
	xs, ys := m.Observations()
	incumbent = math.Inf(1)
	for i, y := range ys {
		if y < incumbent {
			bestX, incumbent = xs[i], y
		}
	}
	return len(xs), bestX, incumbent
}

// infAt returns +Inf in place of its k-th run's time.
type infAt struct {
	tune.Target
	k, runs int
}

func (f *infAt) Run(cfg tune.Config) tune.Result { return f.RunIndexed(f.ReserveRuns(1), cfg) }
func (f *infAt) RunIndexed(i int64, cfg tune.Config) tune.Result {
	res := f.Target.RunIndexed(i, cfg)
	if f.runs++; f.runs == f.k {
		res.Time = math.Inf(1)
	}
	return res
}

// TestITunedNonFiniteObjectiveKeepsModelling: one trial with an infinite
// objective must not blind the session. It stays out of the model and can
// never be the incumbent; every later round still proposes from a fitted
// surrogate with finite predictions.
func TestITunedNonFiniteObjectiveKeepsModelling(t *testing.T) {
	const trials, k = 40, 15
	inf := &infAt{Target: testTarget(6), k: k}
	r, err := tune.DriveProposer(context.Background(), "ituned", inf, tune.Budget{Trials: trials}, newITunedProposer(t, NewITuned(6), inf, trials))
	if err != nil || len(r.Trials) != trials || math.IsInf(r.BestResult.Time, 0) {
		t.Fatalf("session with one infinite trial: %d trials, best %v, err %v", len(r.Trials), r.BestResult.Time, err)
	}

	target := &infAt{Target: testTarget(6), k: k}
	p := newITunedProposer(t, NewITuned(6), target, trials)
	rounds, prev := 0, 0
	drive(t, p, target, trials, func(n int) {
		if n <= k {
			return
		}
		// A model-proposed round is a whole batch; the degenerate-surface
		// fallback is one random probe.
		if prev != 0 && n-prev != tune.AcquireBatch {
			t.Fatalf("the round before trial %d proposed %d configurations, want a batch of %d", n, n-prev, tune.AcquireBatch)
		}
		rounds, prev = rounds+1, n
		m := p.model.Model() // the round before's: all but the last batch
		if m == nil {
			t.Fatalf("no model after %d trials", n)
		}
		_, bestX, incumbent := observed(p.model)
		if mu, sigma := m.Predict(bestX); math.IsNaN(mu) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Fatalf("after %d trials the model predicts (%v, %v) at the incumbent", n, mu, sigma)
		}
		if ei := m.ExpectedImprovement(p.space.Default().Vector(), incumbent); math.IsNaN(ei) {
			t.Fatalf("after %d trials EI is NaN", n)
		}
	})
	if rounds == 0 {
		t.Fatal("no GP round ran after the infinite trial")
	}
	if n, _, incumbent := observed(p.model); n != trials-1 || math.IsInf(incumbent, 0) {
		t.Fatalf("model history holds %d of %d trials, incumbent %v; want the infinite one left out", n, trials, incumbent)
	}
}

func TestITunedNonFiniteObjectiveKeepsModellingRace3(t *testing.T) {
	TestITunedNonFiniteObjectiveKeepsModelling(t)
}

func TestITunedProposerDeterminism(t *testing.T) {
	b := tune.Budget{Trials: 16}
	run := func() []string {
		target := testTarget(4)
		r, err := tune.DriveProposer(context.Background(), "ituned", target, b, newITunedProposer(t, NewITuned(4), target, b.Trials))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tr := range r.Trials {
			out = append(out, tr.Config.String())
		}
		return out
	}
	a, c := run(), run()
	if len(a) != len(c) {
		t.Fatalf("trial counts differ: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("trial %d differs between identical runs", i+1)
		}
	}
}
