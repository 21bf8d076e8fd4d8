package ml

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx/gp"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/workload"
)

func testTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

// syntheticSessions builds a repository corpus whose metrics fall into two
// correlated families (io-driven and cpu-driven) plus one constant metric,
// the structure OtterTune's PCA + k-means pruning is meant to collapse.
func syntheticSessions(trials int) []tune.SessionRecord {
	rng := rand.New(rand.NewSource(1))
	var s tune.SessionRecord
	s.System, s.Workload = "dbms", "synthetic"
	for i := 0; i < trials; i++ {
		io := rng.Float64() * 100
		cpu := rng.Float64() * 10
		s.Trials = append(s.Trials, tune.TrialRecord{
			Vector: []float64{rng.Float64()},
			Time:   io + cpu,
			Metrics: map[string]float64{
				"io_time_s":    io,
				"seq_read_mb":  io * 50,
				"rand_read_mb": io * 5,
				"cpu_time_s":   cpu,
				"cycles_k":     cpu * 1000,
				"constant":     42,
			},
		})
	}
	return []tune.SessionRecord{s}
}

func TestMetricNamesSortedUnion(t *testing.T) {
	names := metricNames(syntheticSessions(6))
	want := []string{"constant", "cpu_time_s", "cycles_k", "io_time_s", "rand_read_mb", "seq_read_mb"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v, want %v", names, want)
		}
	}
}

func TestPruneMetricsKeepsRepresentatives(t *testing.T) {
	sessions := syntheticSessions(40)
	all := metricNames(sessions)
	pruned := pruneMetrics(sessions, 3, rand.New(rand.NewSource(7)))
	if len(pruned) == 0 || len(pruned) > 3 {
		t.Fatalf("pruned to %d metrics, want 1..3: %v", len(pruned), pruned)
	}
	valid := map[string]bool{}
	for _, n := range all {
		valid[n] = true
	}
	seen := map[string]bool{}
	for _, n := range pruned {
		if !valid[n] {
			t.Fatalf("pruning invented metric %q", n)
		}
		if seen[n] {
			t.Fatalf("pruning repeated metric %q", n)
		}
		seen[n] = true
	}
	// Deterministic given the rng seed.
	again := pruneMetrics(sessions, 3, rand.New(rand.NewSource(7)))
	if len(again) != len(pruned) {
		t.Fatalf("pruning not deterministic: %v vs %v", pruned, again)
	}
	for i := range pruned {
		if pruned[i] != again[i] {
			t.Fatalf("pruning not deterministic: %v vs %v", pruned, again)
		}
	}
}

func TestPruneMetricsSmallCorpusPassthrough(t *testing.T) {
	sessions := syntheticSessions(2) // < 4 observation rows
	got := pruneMetrics(sessions, 3, rand.New(rand.NewSource(1)))
	if len(got) != 3 {
		t.Fatalf("small corpus should truncate to keep: got %v", got)
	}
}

func TestRankKnobsFallsBackToImpact(t *testing.T) {
	space := testTarget(1).Space()
	ranking := rankKnobs(space, nil) // no sessions → documentation impact
	impact := space.ByImpact()
	if len(ranking) != len(impact) {
		t.Fatalf("ranking covers %d of %d knobs", len(ranking), len(impact))
	}
	for i := range impact {
		if ranking[i] != impact[i] {
			t.Fatalf("cold ranking differs from ByImpact at %d: %v", i, ranking)
		}
	}
}

func TestOtterTuneProposerPhases(t *testing.T) {
	ot := NewOtterTune(3, nil)
	target := testTarget(3)
	p, err := ot.NewProposer(target, tune.Budget{Trials: 20})
	if err != nil {
		t.Fatal(err)
	}
	init := p.Propose(20)
	if len(init) != 6 { // default config + InitObs LHS points
		t.Fatalf("init batch has %d configs, want 6", len(init))
	}
	if init[0].String() != target.Space().Default().String() {
		t.Fatal("first observation should be the default configuration")
	}
	for i, cfg := range init {
		p.Observe(tune.Trial{N: i + 1, Config: cfg, Result: tune.Result{Time: float64(200 - i)}})
	}
	round := p.Propose(20)
	if len(round) == 0 || len(round) > 4 {
		t.Fatalf("GP round proposed %d candidates, want 1..4", len(round))
	}
}

// drive runs p against target for the given number of trials the way
// tune.Drive would, calling round before each Propose past the initial
// batch, and returns the best time seen.
func drive(t *testing.T, p *otProposer, target tune.Target, trials int, round func(n int)) float64 {
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

func newOtterTuneProposer(t *testing.T, target tune.Target, trials int) *otProposer {
	t.Helper()
	p, err := NewOtterTune(9, nil).NewProposer(target, tune.Budget{Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	return p.(*otProposer)
}

// TestOtterTuneAppendsBetweenRebuilds mirrors the iTuned test: past the
// sparse threshold most rounds append to the persistent model, the rest
// rebuild it, and a 200-trial session improves on its initial batch.
func TestOtterTuneAppendsBetweenRebuilds(t *testing.T) {
	target := testTarget(9)
	p := newOtterTuneProposer(t, target, 200)
	initial := drive(t, p, target, len(p.pending), nil)
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
	if best >= initial {
		t.Errorf("200 trials did not improve on the initial batch: %v vs %v", best, initial)
	}
}

// TestOtterTuneCorpusPriorCrossesTiers pins what the engine's
// ottertune(corpus) pipeline row rests on: with one 150-trial dbms/tpch
// session in the corpus, OtterTune maps its target onto that session and
// places all 150 trials ahead of its own, so a 40-trial session fits exact
// first and ends on the sparse tier at the production threshold.
func TestOtterTuneCorpusPriorCrossesTiers(t *testing.T) {
	const seed, trials = 17, 40
	past := testTarget(seed + 1)
	b := tune.Budget{Trials: 150}
	rp, err := (&experiment.Random{Seed: seed}).NewProposer(past, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tune.DriveProposer(context.Background(), "random", past, b, rp)
	if err != nil {
		t.Fatal(err)
	}
	corpus := &tune.Repository{}
	corpus.AddResult("dbms", "tpch", past.WorkloadFeatures(), res)

	target := testTarget(seed)
	op, err := NewOtterTune(seed, corpus).NewProposer(target, tune.Budget{Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	p := op.(*otProposer)
	exact := false
	drive(t, p, target, trials, func(int) {
		if m := p.model.Model(); m != nil && m.Tier() == tune.SurrogateExact {
			exact = true
		}
	})
	m := p.model.Sync(80)
	if m == nil {
		t.Fatalf("no model after %d trials", trials)
	}
	own, _, _ := observed(p.model)
	if prior := m.TrainingSize() - own; !exact || m.Tier() != tune.SurrogateSparse || prior != 150 {
		t.Errorf("after %d trials: the %s tier over a %d-row prior, exact fits before it: %v; want sparse, 150 and true",
			trials, m.Tier(), prior, exact)
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

// TestOtterTuneNonFiniteObjectiveKeepsModelling: a trial with an infinite
// objective stays out of the model and the incumbent, and every later round
// still proposes from a surrogate with finite predictions.
func TestOtterTuneNonFiniteObjectiveKeepsModelling(t *testing.T) {
	const trials, k = 30, 12
	inf := &infAt{Target: testTarget(9), k: k}
	r, err := tune.DriveProposer(context.Background(), "ottertune", inf, tune.Budget{Trials: trials}, newOtterTuneProposer(t, inf, trials))
	if err != nil || len(r.Trials) != trials || math.IsInf(r.BestResult.Time, 0) {
		t.Fatalf("session with one infinite trial: %d trials, best %v, err %v", len(r.Trials), r.BestResult.Time, err)
	}

	target := &infAt{Target: testTarget(9), k: k}
	p := newOtterTuneProposer(t, target, trials)
	rounds, prev := 0, 0
	drive(t, p, target, trials, func(n int) {
		if n <= k {
			return
		}
		// A model-proposed round is a whole batch; the fallback is one probe.
		if prev != 0 && n-prev != tune.AcquireBatch {
			t.Fatalf("the round before trial %d proposed %d configurations, want a batch of %d", n, n-prev, tune.AcquireBatch)
		}
		rounds, prev = rounds+1, n
		m := p.model.Model() // the round before's: all but the last batch
		if m == nil {
			t.Fatalf("no model after %d trials", n)
		}
		_, bestX, _ := observed(p.model)
		if mu, sigma := m.Predict(bestX); math.IsNaN(mu) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Fatalf("after %d trials the model predicts (%v, %v) at the incumbent", n, mu, sigma)
		}
	})
	if rounds == 0 {
		t.Fatal("no GP round ran after the infinite trial")
	}
	if n, _, incumbent := observed(p.model); n != trials-1 || math.IsInf(incumbent, 0) {
		t.Fatalf("model history holds %d of %d trials, incumbent %v; want the infinite one left out", n, trials, incumbent)
	}
}

func TestOtterTuneNonFiniteObjectiveKeepsModellingRace3(t *testing.T) {
	TestOtterTuneNonFiniteObjectiveKeepsModelling(t)
}

func TestOtterTuneColdStartImproves(t *testing.T) {
	target := testTarget(5)
	def := target.Run(target.Space().Default())
	b, tuned := tune.Budget{Trials: 15}, testTarget(6)
	p, err := NewOtterTune(5, nil).NewProposer(tuned, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tune.DriveProposer(context.Background(), "ottertune", tuned, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.BestResult.Time >= def.Time {
		t.Errorf("cold-start OtterTune did not improve: %v vs default %v", r.BestResult.Time, def.Time)
	}
	if len(r.Trials) > 15 {
		t.Errorf("budget exceeded: %d trials", len(r.Trials))
	}
}
