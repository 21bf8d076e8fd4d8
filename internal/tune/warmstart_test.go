package tune

import (
	"context"
	"reflect"
	"testing"
)

func warmSpace() *Space {
	return NewSpace(Float("a", 0, 1, 0.5), Float("b", 0, 1, 0.5))
}

func sessionWith(system, workload string, features map[string]float64, trials ...TrialRecord) SessionRecord {
	return SessionRecord{
		System: system, Workload: workload,
		ParamNames: []string{"a", "b"},
		Features:   features, Trials: trials,
	}
}

func TestNearestSessionNormalizes(t *testing.T) {
	// Feature "bytes" spans millions while "ratio" spans [0,1]; without
	// normalization the bytes axis would decide everything.
	sessions := []SessionRecord{
		sessionWith("dbms", "far", map[string]float64{"bytes": 1e6, "ratio": 0.9}),
		sessionWith("dbms", "near", map[string]float64{"bytes": 2e6, "ratio": 0.1}),
	}
	got := NearestSession(sessions, map[string]float64{"bytes": 2e6, "ratio": 0.15})
	if got != 1 {
		t.Errorf("NearestSession = %d, want 1 (the near workload)", got)
	}
	if NearestSession(nil, nil) != -1 {
		t.Error("empty sessions should map to -1")
	}
}

func TestNearestSessionTieBreaksDeterministically(t *testing.T) {
	sessions := []SessionRecord{
		sessionWith("dbms", "w0", map[string]float64{"x": 1}),
		sessionWith("dbms", "w1", map[string]float64{"x": 1}),
	}
	if got := NearestSession(sessions, map[string]float64{"x": 1}); got != 0 {
		t.Errorf("tie should break to the earliest session, got %d", got)
	}
}

func TestRankSessionsOrdersNearestFirst(t *testing.T) {
	sessions := []SessionRecord{
		sessionWith("dbms", "mid", map[string]float64{"x": 5}),
		sessionWith("dbms", "far", map[string]float64{"x": 10}),
		sessionWith("dbms", "near", map[string]float64{"x": 1}),
		sessionWith("dbms", "near-tie", map[string]float64{"x": 1}),
	}
	order := RankSessions(sessions, map[string]float64{"x": 1})
	want := []int{2, 3, 0, 1} // distance then earliest-index tie-break
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("RankSessions = %v, want %v", order, want)
	}
	if RankSessions(nil, nil) != nil {
		t.Error("empty sessions should rank to nil")
	}
}

func TestWarmConfigsSkipsIncompatibleDimensions(t *testing.T) {
	space := warmSpace()
	// Nearest session has the wrong parameter count; the next-nearest
	// compatible one must supply the transfer.
	incompatible := SessionRecord{
		System: "dbms", Workload: "threeknob",
		ParamNames: []string{"a", "b", "c"},
		Features:   map[string]float64{"x": 1},
		Trials:     []TrialRecord{{Vector: []float64{0.5, 0.5, 0.5}, Time: 1}},
	}
	compatible := sessionWith("dbms", "tpch", map[string]float64{"x": 2},
		TrialRecord{Vector: []float64{0.4, 0.4}, Time: 10})
	repo := &Repository{Sessions: []SessionRecord{incompatible, compatible}}
	got := WarmConfigs(repo, "dbms", map[string]float64{"x": 1}, space, 2)
	if len(got) != 1 || !reflect.DeepEqual(got[0].Vector(), []float64{0.4, 0.4}) {
		t.Fatalf("WarmConfigs = %v, want the compatible session's config", got)
	}
}

func TestTransferConfigs(t *testing.T) {
	space := warmSpace()
	rec := sessionWith("dbms", "tpch", nil,
		TrialRecord{Vector: []float64{0.9, 0.9}, Time: 50},
		TrialRecord{Vector: []float64{0.1, 0.1}, Time: 10},
		TrialRecord{Vector: []float64{0.1, 0.1}, Time: 12}, // duplicate config
		TrialRecord{Vector: []float64{0.2, 0.2}, Time: 5, Failed: true},
		TrialRecord{Vector: []float64{0.3, 0.3}, Time: 20},
	)
	got := TransferConfigs(rec, space, 2)
	if len(got) != 2 {
		t.Fatalf("got %d configs", len(got))
	}
	// Best first (10s), duplicates folded, failed trials excluded.
	if !reflect.DeepEqual(got[0].Vector(), []float64{0.1, 0.1}) {
		t.Errorf("best transfer = %v", got[0].Vector())
	}
	if !reflect.DeepEqual(got[1].Vector(), []float64{0.3, 0.3}) {
		t.Errorf("second transfer = %v", got[1].Vector())
	}
	// A session over a different space transfers nothing.
	other := rec
	other.ParamNames = []string{"x", "y"}
	if TransferConfigs(other, space, 2) != nil {
		t.Error("mismatched param names should transfer nothing")
	}
}

func TestWarmConfigsMapsAndFallsBack(t *testing.T) {
	space := warmSpace()
	repo := &Repository{}
	// Nearest session has an incompatible space; the next-nearest must be
	// used instead of giving up.
	incompatible := sessionWith("dbms", "nearest", map[string]float64{"x": 1})
	incompatible.ParamNames = []string{"z"}
	incompatible.Trials = []TrialRecord{{Vector: []float64{0.5}, Time: 1}}
	repo.Add(incompatible)
	repo.Add(sessionWith("dbms", "usable", map[string]float64{"x": 2},
		TrialRecord{Vector: []float64{0.4, 0.6}, Time: 7}))
	repo.Add(sessionWith("spark", "othersystem", map[string]float64{"x": 1},
		TrialRecord{Vector: []float64{0.2, 0.2}, Time: 1}))

	got := WarmConfigs(repo, "dbms", map[string]float64{"x": 1}, space, 3)
	if len(got) != 1 || !reflect.DeepEqual(got[0].Vector(), []float64{0.4, 0.6}) {
		t.Errorf("WarmConfigs = %v", got)
	}
	if WarmConfigs(nil, "dbms", nil, space, 3) != nil {
		t.Error("nil repository should warm-start nothing")
	}
	if WarmConfigs(&Repository{}, "dbms", nil, space, 3) != nil {
		t.Error("empty repository should warm-start nothing")
	}
}

// countingProposer records what flows through it.
type countingProposer struct {
	space    *Space
	proposed int
	observed []Trial
	rec      Config
}

func (p *countingProposer) Propose(n int) []Config {
	if p.proposed >= 4 || n <= 0 {
		return nil
	}
	p.proposed++
	return []Config{p.space.Default()}
}
func (p *countingProposer) Observe(t Trial)   { p.observed = append(p.observed, t) }
func (p *countingProposer) Recommend() Config { return p.rec }

type constTarget struct {
	runCounter
	space *Space
}

func (c *constTarget) Name() string          { return "dbms/const" }
func (c *constTarget) Space() *Space         { return c.space }
func (c *constTarget) Run(cfg Config) Result { return c.RunIndexed(c.ReserveRuns(1), cfg) }
func (c *constTarget) RunIndexed(_ int64, cfg Config) Result {
	// Objective: distance from (0.1, 0.1), so transferred seeds near it win.
	v := cfg.Vector()
	d := (v[0]-0.1)*(v[0]-0.1) + (v[1]-0.1)*(v[1]-0.1)
	return Result{Time: 1 + d}
}

func TestWarmStarterInjectsSeedsFirst(t *testing.T) {
	space := warmSpace()
	inner := &countingProposer{space: space, rec: space.Default()}
	seeds := []Config{
		space.FromVector([]float64{0.1, 0.1}),
		space.FromVector([]float64{0.2, 0.2}),
	}
	w := NewWarmStarter(inner, seeds)
	first := w.Propose(10)
	if len(first) != 2 {
		t.Fatalf("first ask proposed %d configs, want the 2 seeds", len(first))
	}
	if !reflect.DeepEqual(first[0].Vector(), []float64{0.1, 0.1}) {
		t.Errorf("seed order wrong: %v", first[0].Vector())
	}
	w.Observe(Trial{N: 1, Config: first[0], Result: Result{Time: 1}})
	w.Observe(Trial{N: 2, Config: first[1], Result: Result{Time: 2}})
	if len(inner.observed) != 2 {
		t.Errorf("inner proposer saw %d observations, want 2 (seeds flow through)", len(inner.observed))
	}
	// Subsequent asks delegate to the inner proposer.
	next := w.Propose(10)
	if len(next) != 1 || inner.proposed != 1 {
		t.Errorf("delegation broken: got %d configs, inner proposed %d", len(next), inner.proposed)
	}
	if !w.Recommend().Valid() {
		t.Error("Recommend should forward to the inner Recommender")
	}
}

// warmBatchTuner adapts countingProposer into a BatchTuner for wrapper tests.
type warmBatchTuner struct{ space *Space }

func (warmBatchTuner) Name() string { return "counting" }
func (t warmBatchTuner) NewProposer(target Target, b Budget) (Proposer, error) {
	return &countingProposer{space: t.space}, nil
}

func TestWarmStartTunerSeedsSessions(t *testing.T) {
	space := warmSpace()
	target := &constTarget{space: space}
	seed := space.FromVector([]float64{0.1, 0.1})
	wrapped := WarmStartTuner(warmBatchTuner{space: space}, []Config{seed})
	if wrapped.Name() != "counting" {
		t.Errorf("wrapper must keep the inner name, got %q", wrapped.Name())
	}
	b := Budget{Trials: 3}
	p, err := wrapped.NewProposer(target, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DriveProposer(context.Background(), wrapped.Name(), target, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("ran %d trials", len(res.Trials))
	}
	if !reflect.DeepEqual(res.Trials[0].Config.Vector(), []float64{0.1, 0.1}) {
		t.Errorf("first trial should be the seed, got %v", res.Trials[0].Config.Vector())
	}
	if !reflect.DeepEqual(res.Best.Vector(), []float64{0.1, 0.1}) {
		t.Errorf("seed should win on this target, best = %v", res.Best.Vector())
	}
	// No seeds: the wrapper is the identity.
	inner := warmBatchTuner{space: space}
	if got := WarmStartTuner(inner, nil); got != BatchTuner(inner) {
		t.Error("empty seeds should return the inner tuner unchanged")
	}
}
