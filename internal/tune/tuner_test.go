package tune

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// stubTarget is a quadratic bowl with its minimum at (0.7, 0.3).
type stubTarget struct {
	space *Space
	runs  int
}

func newStubTarget() *stubTarget {
	return &stubTarget{space: NewSpace(Float("x", 0, 1, 0.5), Float("y", 0, 1, 0.5))}
}

func (s *stubTarget) Name() string  { return "stub/bowl" }
func (s *stubTarget) Space() *Space { return s.space }
func (s *stubTarget) Run(cfg Config) Result {
	s.runs++
	x, y := cfg.Float("x"), cfg.Float("y")
	t := 1 + 10*((x-0.7)*(x-0.7)+(y-0.3)*(y-0.3))
	return Result{Time: t, Metrics: map[string]float64{"x": x}}
}

// driveList runs cfgs, in order, through the one trial path: Drive →
// Inline → Session.Record.
func driveList(t *testing.T, ctx context.Context, target Target, b Budget, cfgs ...Config) (*TuningResult, error) {
	t.Helper()
	return DriveProposer(ctx, "t", target, b, &listProposer{pending: cfgs})
}

func repeatConfig(cfg Config, n int) []Config {
	out := make([]Config, n)
	for i := range out {
		out[i] = cfg
	}
	return out
}

func TestSessionBudgetEnforced(t *testing.T) {
	target := newStubTarget()
	r, err := driveList(t, nil, target, Budget{Trials: 3}, repeatConfig(target.Space().Default(), 5)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) != 3 || target.runs != 3 {
		t.Errorf("budget 3 recorded %d trials over %d target runs", len(r.Trials), target.runs)
	}
}

func TestSessionSimTimeBudget(t *testing.T) {
	target := newStubTarget()
	r, err := driveList(t, nil, target, Budget{Trials: 100, SimTime: 2.5}, repeatConfig(target.Space().Default(), 100)...)
	if err != nil {
		t.Fatal(err)
	}
	// Each run costs ≥1 simulated second, so the 2.5s budget admits ≤3.
	if n := len(r.Trials); n == 0 || n > 3 || target.runs != n {
		t.Errorf("sim-time budget admitted %d trials over %d target runs", n, target.runs)
	}
}

func TestSessionTracksBest(t *testing.T) {
	target := newStubTarget()
	good := target.Space().Default().With("x", 0.7).With("y", 0.3)
	bad := target.Space().Default().With("x", 0.0).With("y", 1.0)
	r, err := driveList(t, nil, target, Budget{Trials: 10}, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best.Float("x") != good.Float("x") || r.BestResult.Time > 1.01 {
		t.Errorf("best = %s (%.3f)", r.Best, r.BestResult.Time)
	}
}

// The incumbency compares penalized objectives: a failed run holds it until
// a successful run beats its penalized time, and a later failure needs a
// penalized time below the incumbent's, not a raw one.
func TestSessionFailedRunIncumbent(t *testing.T) {
	target := newStubTarget()
	s := NewSession(nil, target, Budget{Trials: 10})
	def := target.Space().Default()
	s.Record(Candidate{Config: def.With("x", 0.1)}, Result{Time: 5, Failed: true})
	if _, res := s.Best(); !res.Failed {
		t.Fatalf("the only trial so far is the incumbent, failed or not: %+v", res)
	}
	s.Record(Candidate{Config: def.With("x", 0.2)}, Result{Time: 40})
	s.Record(Candidate{Config: def.With("x", 0.3)}, Result{Time: 4.5, Failed: true})
	if best, res := s.Best(); res.Failed || best.Float("x") != 0.2 {
		t.Errorf("incumbent = %s (%+v), want the successful run", best, res)
	}
}

func TestSessionContextCancel(t *testing.T) {
	target := newStubTarget()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := driveList(t, ctx, target, Budget{Trials: 10}, target.Space().Default()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled session returned %v, want context.Canceled", err)
	}
	if target.runs != 0 {
		t.Errorf("cancelled session ran the target %d times", target.runs)
	}
}

func TestSessionRecordFullFidelity(t *testing.T) {
	target := newStubTarget()
	s := NewSession(nil, target, Budget{Trials: 5})
	s.Record(Candidate{Config: target.Space().Default()}, Result{Time: 42})
	if len(s.Trials()) != 1 || s.SimTimeUsed() != 42 {
		t.Errorf("external trial not recorded: %d trials, %.0f sim", len(s.Trials()), s.SimTimeUsed())
	}
	_, res := s.Best()
	if res.Time != 42 {
		t.Errorf("best = %v", res.Time)
	}
}

func TestFinishFallbacks(t *testing.T) {
	target := newStubTarget()
	s := NewSession(nil, target, Budget{Trials: 0})
	rec := target.Space().Default().With("x", 0.9)
	r := s.Finish("t", rec)
	if r.Best.Float("x") != rec.Float("x") {
		t.Error("Finish should fall back to the recommendation")
	}
	s2 := NewSession(nil, target, Budget{Trials: 0})
	r2 := s2.Finish("t", Config{})
	if !r2.Best.Valid() {
		t.Error("Finish should fall back to the default config")
	}
}

func TestTuningResultCurve(t *testing.T) {
	target := newStubTarget()
	r, err := driveList(t, nil, target, Budget{Trials: 3},
		target.Space().Default().With("x", 0.0).With("y", 1.0), // bad
		target.Space().Default().With("x", 0.7).With("y", 0.3), // best
		target.Space().Default().With("x", 0.5).With("y", 0.5), // middling
	)
	if err != nil {
		t.Fatal(err)
	}
	curve := r.Curve()
	if len(curve) != 3 {
		t.Fatalf("curve length %d", len(curve))
	}
	if !(curve[0] >= curve[1] && curve[1] == curve[2]) {
		t.Errorf("curve not monotone non-increasing: %v", curve)
	}
	if got := r.TrialsToWithin(1.0, 1.1); got != 2 {
		t.Errorf("TrialsToWithin = %d, want 2", got)
	}
	if got := r.TrialsToWithin(0.01, 1.1); got != 0 {
		t.Errorf("TrialsToWithin unreachable = %d, want 0", got)
	}
}

func TestRepositoryRoundTrip(t *testing.T) {
	target := newStubTarget()
	var cfgs []Config
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, target.Space().Random(randSource(int64(i))))
	}
	res, err := driveList(t, nil, target, Budget{Trials: 4}, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddResult("stub", "bowl", map[string]float64{"size": 2}, res)

	// The JSON form of a record is what the store's WAL and segments hold.
	raw, err := json.Marshal(repo)
	if err != nil {
		t.Fatal(err)
	}
	var back Repository
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Sessions) != 1 || len(back.Sessions[0].Trials) != 4 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Sessions[0].ParamNames[0] != "x" {
		t.Errorf("param names lost: %v", back.Sessions[0].ParamNames)
	}
	if at := back.Sessions[0].BestTrial(); at < 0 {
		t.Error("BestTrial not found")
	}
}

func TestBestTrialSkipsFailures(t *testing.T) {
	rec := SessionRecord{Trials: []TrialRecord{
		{Time: 1, Failed: true},
		{Time: 5},
		{Time: 3},
	}}
	if at := rec.BestTrial(); at != 2 {
		t.Errorf("BestTrial = %d, want 2", at)
	}
	empty := SessionRecord{}
	if empty.BestTrial() != -1 {
		t.Error("empty session should have no best trial")
	}
}

func TestObjectiveInfinityGuard(t *testing.T) {
	r := Result{Time: math.Inf(1)}
	if !math.IsInf(r.Objective(), 1) {
		t.Error("objective should propagate infinity")
	}
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSplitTargetName(t *testing.T) {
	for _, c := range []struct{ name, system, workload string }{
		{"dbms/tpch", "dbms", "tpch"},
		{"dbms/oltp-olap-shift", "dbms", "oltp-olap-shift"},
		{"spark/pagerank", "spark", "pagerank"},
		{"a/b/c", "a", "b/c"}, // only the first '/' separates
		{"dbms", "dbms", ""},
		{"/tpch", "", "tpch"},
		{"dbms/", "dbms", ""},
		{"", "", ""},
	} {
		if system, workload := SplitTargetName(c.name); system != c.system || workload != c.workload {
			t.Errorf("SplitTargetName(%q) = %q, %q; want %q, %q", c.name, system, workload, c.system, c.workload)
		}
	}
}

// Best returns the incumbent configuration and result. If no trial was run
// the target default is returned with a zero Result.
func (s *Session) Best() (Config, Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasBest {
		return s.target.Space().Default(), Result{}
	}
	return s.best, s.bestRes
}

// SimTimeUsed returns the cumulative simulated seconds consumed.
func (s *Session) SimTimeUsed() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simUsed
}
