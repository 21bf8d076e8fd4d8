package tune

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// assertScheduleProperties checks the rung-math invariants for one
// (strategy, trials) instance: the schedule never exceeds the declared trial
// budget, rung widths (promotion counts) are non-increasing within a
// bracket, and fidelities climb the ladder strictly.
func assertScheduleProperties(t *testing.T, strategy string, trials int) {
	t.Helper()
	sched := Schedule(strategy, trials)
	if trials <= 0 {
		if len(sched) != 0 {
			t.Fatalf("Schedule(%s, %d) = %d brackets, want none", strategy, trials, len(sched))
		}
		return
	}
	total := 0
	for bi, br := range sched {
		if len(br.Rungs) == 0 {
			t.Fatalf("bracket %d is empty", bi)
		}
		prevW := math.MaxInt32
		prevF := 0.0
		for ri, r := range br.Rungs {
			if r.Width < 1 {
				t.Fatalf("bracket %d rung %d has width %d", bi, ri, r.Width)
			}
			if r.Width > int(prevW) {
				t.Fatalf("bracket %d rung %d width %d exceeds previous %d (promotion counts must be non-increasing)",
					bi, ri, r.Width, prevW)
			}
			if !(r.Fidelity > 0 && r.Fidelity <= 1) {
				t.Fatalf("bracket %d rung %d fidelity %v out of (0,1]", bi, ri, r.Fidelity)
			}
			if r.Fidelity <= prevF {
				t.Fatalf("bracket %d rung %d fidelity %v does not increase from %v", bi, ri, r.Fidelity, prevF)
			}
			prevW, prevF = r.Width, r.Fidelity
		}
		total += br.Trials()
	}
	if total > trials {
		t.Fatalf("schedule spends %d trials over the declared budget %d (%s)", total, trials, strategy)
	}
	if total < trials && total == 0 {
		t.Fatalf("schedule spends nothing of a %d-trial budget", trials)
	}
	// The schedule fills the budget exactly: clipping takes whole trials
	// until none remain.
	if total != trials {
		t.Fatalf("schedule spends %d of %d budgeted trials", total, trials)
	}
	// Every schedule reaches full fidelity at least once, however small
	// the budget — otherwise a session could end with no trial capable of
	// holding the incumbent.
	reachesFull := false
	for _, br := range sched {
		for _, r := range br.Rungs {
			if r.Fidelity >= 1 {
				reachesFull = true
			}
		}
	}
	if !reachesFull {
		t.Fatalf("schedule for %d trials never reaches full fidelity", trials)
	}
}

// TestBracketScheduleProperties sweeps both strategies' schedules over every
// budget from 1 to 200, and over non-positive budgets.
func TestBracketScheduleProperties(t *testing.T) {
	for trials := -5; trials <= 200; trials++ {
		assertScheduleProperties(t, StrategyHyperband, trials)
		assertScheduleProperties(t, StrategyHalving, trials)
	}
}

// FuzzBracketSchedule fuzzes the budget with the same invariants; the f.Add
// seeds are the checked-in regression corpus run by the CI fuzz-seed step.
func FuzzBracketSchedule(f *testing.F) {
	for _, trials := range []int{30, 100, 7, 250, 1, 22} {
		f.Add(trials)
	}
	f.Fuzz(func(t *testing.T, trials int) {
		if trials > 100000 {
			t.Skip("budget large enough to be a CPU sink, not a logic probe")
		}
		assertScheduleProperties(t, StrategyHyperband, trials)
		assertScheduleProperties(t, StrategyHalving, trials)
	})
}

// fidelityStub is a deterministic in-package FidelityTarget: objective is
// the first coordinate (lower better), time scales exactly linearly with
// fidelity, no noise.
type fidelityStub struct {
	space *Space
	runs  atomic.Int64
}

func newFidelityStub() *fidelityStub {
	return &fidelityStub{space: NewSpace(Float("x", 0, 1, 0.5), Float("y", 0, 1, 0.5))}
}

func (s *fidelityStub) Name() string              { return "stub/fidelity" }
func (s *fidelityStub) Space() *Space             { return s.space }
func (s *fidelityStub) ReserveRuns(n int64) int64 { return s.runs.Add(n) - n + 1 }
func (s *fidelityStub) Run(cfg Config) Result     { return s.RunIndexed(s.ReserveRuns(1), cfg) }
func (s *fidelityStub) RunIndexed(i int64, cfg Config) Result {
	return s.RunIndexedFidelity(nil, i, 1, cfg)
}
func (s *fidelityStub) RunFidelity(_ context.Context, f float64, cfg Config) Result {
	return s.RunIndexedFidelity(nil, s.ReserveRuns(1), f, cfg)
}
func (s *fidelityStub) RunIndexedFidelity(_ context.Context, _ int64, f float64, cfg Config) Result {
	if !(f > 0) || f > 1 {
		f = 1
	}
	return Result{Time: (10 + 100*cfg.Float("x")) * f}
}

// streamProposer proposes a deterministic random stream and records what
// it observed.
type streamProposer struct {
	rng      *rand.Rand
	space    *Space
	observed []Trial
}

func (p *streamProposer) Propose(n int) []Config {
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.space.Random(p.rng))
	}
	return out
}
func (p *streamProposer) Observe(t Trial) { p.observed = append(p.observed, t) }

type streamTuner struct{ p *streamProposer }

func (t *streamTuner) Name() string                                          { return "counting" }
func (t *streamTuner) NewProposer(target Target, b Budget) (Proposer, error) { return t.p, nil }

// TestMultiFidelityPromotionSemantics drives a Hyperband schedule against
// the linear stub and checks the run-level rung invariants: the budget is
// respected, every promoted configuration was observed at a strictly lower
// fidelity first, pruned trials are real recorded trials and are never
// promoted, and the incumbent is a full-fidelity trial.
func TestMultiFidelityPromotionSemantics(t *testing.T) {
	target := newFidelityStub()
	inner := &streamTuner{p: &streamProposer{rng: rand.New(rand.NewSource(3)), space: target.Space()}}
	mf, err := NewMultiFidelity(inner, StrategyHyperband, 11)
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	ctx := WithMonitor(context.Background(), &Monitor{OnEvent: func(ev Event) { events = append(events, ev) }})
	res, err := driveSchedule(ctx, mf, target, Budget{Trials: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) == 0 || len(res.Trials) > 30 {
		t.Fatalf("ran %d trials under a 30-trial budget", len(res.Trials))
	}

	fidOf := func(tr Trial) float64 {
		if tr.Result.FullFidelity() {
			return 1
		}
		return tr.Result.Fidelity
	}
	// Segment the trials by the declared schedule (the random inner
	// proposer always fills base rungs, so the run realizes the schedule
	// exactly) and check, rung by rung, that every promoted configuration
	// was observed at the bracket's previous rung and that each trial ran
	// at its rung's declared fidelity.
	sched := Schedule(StrategyHyperband, 30)
	at := 0
	for bi, br := range sched {
		var prevRung []Trial
		for ri, rung := range br.Rungs {
			if at+rung.Width > len(res.Trials) {
				t.Fatalf("schedule expects %d trials at bracket %d rung %d but only %d were recorded",
					rung.Width, bi, ri, len(res.Trials)-at)
			}
			members := res.Trials[at : at+rung.Width]
			at += rung.Width
			for _, tr := range members {
				if math.Abs(fidOf(tr)-rung.Fidelity) > 1e-9 {
					t.Errorf("bracket %d rung %d trial %d ran at fidelity %v, schedule says %v",
						bi, ri, tr.N, fidOf(tr), rung.Fidelity)
				}
				if ri == 0 {
					continue // base rungs are fresh proposals
				}
				found := false
				for _, prev := range prevRung {
					if prev.Config.String() == tr.Config.String() {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("bracket %d rung %d trial %d was never observed at the lower rung", bi, ri, tr.N)
				}
			}
			prevRung = members
		}
	}
	if at != len(res.Trials) {
		t.Fatalf("recorded %d trials, schedule accounts for %d", len(res.Trials), at)
	}

	// Pruned trials reference recorded trials and are never promoted.
	pruned := map[int]bool{}
	for _, ev := range events {
		if ev.Kind != TrialPruned {
			continue
		}
		if ev.Trial < 1 || ev.Trial > len(res.Trials) {
			t.Fatalf("pruned trial %d out of range", ev.Trial)
		}
		pruned[ev.Trial] = true
	}
	if len(pruned) == 0 {
		t.Fatal("a Hyperband run pruned nothing")
	}
	for n := range pruned {
		cut := res.Trials[n-1]
		for _, later := range res.Trials[n:] {
			if later.Config.String() == cut.Config.String() && fidOf(later) > fidOf(cut) {
				t.Errorf("pruned trial %d was later promoted to fidelity %v", n, fidOf(later))
			}
		}
	}

	// The incumbent is full fidelity and matches the best full trial.
	if !res.BestResult.FullFidelity() {
		t.Errorf("incumbent at partial fidelity %v", res.BestResult.Fidelity)
	}
	best := math.Inf(1)
	for _, tr := range res.Trials {
		if tr.Result.FullFidelity() && tr.Result.Time < best {
			best = tr.Result.Time
		}
	}
	if res.BestResult.Time != best {
		t.Errorf("incumbent %v != best full-fidelity trial %v", res.BestResult.Time, best)
	}

	// The inner proposer observed every trial, in order, with partial
	// times cost-normalized onto the full scale (exact here: the stub's
	// cost is exactly linear in fidelity).
	if len(inner.p.observed) != len(res.Trials) {
		t.Fatalf("inner observed %d of %d trials", len(inner.p.observed), len(res.Trials))
	}
	for i, ob := range inner.p.observed {
		want := 10 + 100*res.Trials[i].Config.Float("x")
		if math.Abs(ob.Result.Time-want) > 1e-9 {
			t.Fatalf("inner observation %d time %v, want normalized %v", i, ob.Result.Time, want)
		}
	}
}

// driveSchedule runs one session of mf inline.
func driveSchedule(ctx context.Context, mf *MultiFidelityTuner, target Target, b Budget) (*TuningResult, error) {
	fp, err := mf.NewFidelityProposer(target, b)
	if err != nil {
		return nil, err
	}
	return Drive(ctx, mf.Name(), target, b, fp, Inline(Resolve(target)), nil)
}

// TestDriveFidelityRequiresFidelityTarget: a plain target is rejected
// descriptively by both the check and the construction.
func TestDriveFidelityRequiresFidelityTarget(t *testing.T) {
	target := newStubTarget()
	inner := &streamTuner{p: &streamProposer{rng: rand.New(rand.NewSource(1)), space: target.Space()}}
	mf, err := NewMultiFidelity(inner, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.NewFidelityProposer(target, Budget{Trials: 5}); err == nil {
		t.Error("NewFidelityProposer accepted a target without a fidelity path")
	}
	if err := mf.Check(target, Budget{Trials: 5}); err == nil {
		t.Error("Check accepted a target without a fidelity path")
	}
	if _, err := NewMultiFidelity(inner, "bogus", 1); err == nil {
		t.Error("NewMultiFidelity accepted an unknown strategy")
	}
	if _, err := NewMultiFidelity(nil, "", 1); err == nil {
		t.Error("NewMultiFidelity accepted a nil inner tuner")
	}
}

// runCandidate evaluates c on target's own run counter and records it — one
// step of the inline drive loop.
func runCandidate(t *testing.T, s *Session, target Target, c Candidate) {
	t.Helper()
	res, err := Resolve(target).Eval(context.Background(), NextRun, c)
	if err != nil {
		t.Fatal(err)
	}
	s.Record(c, res)
}

// TestSessionPruneEmitsOrderedEvents: Session.Prune emits TrialPruned with
// the trial's configuration and fidelity, ignoring out-of-range numbers.
func TestSessionPruneEmitsOrderedEvents(t *testing.T) {
	target := newFidelityStub()
	var events []Event
	ctx := WithMonitor(context.Background(), &Monitor{OnEvent: func(ev Event) { events = append(events, ev) }})
	s := NewSession(ctx, target, Budget{Trials: 4})
	for i := 0; i < 3; i++ {
		runCandidate(t, s, target, Candidate{Config: target.Space().Random(rand.New(rand.NewSource(int64(i)))), Fidelity: 1.0 / 3})
	}
	s.Prune(2, 3, 99, 0)
	var got []Event
	for _, ev := range events {
		if ev.Kind == TrialPruned {
			got = append(got, ev)
		}
	}
	if len(got) != 2 || got[0].Trial != 2 || got[1].Trial != 3 {
		t.Fatalf("pruned events = %+v", got)
	}
	for _, ev := range got {
		if !ev.Config.Valid() {
			t.Error("pruned event lost its config")
		}
		if math.Abs(ev.Fidelity-1.0/3) > 1e-12 {
			t.Errorf("pruned event fidelity %v, want 1/3", ev.Fidelity)
		}
	}
}

// TestSessionPartialFidelityNeverHoldsIncumbency: a partial trial with a
// tiny time must not displace a full-fidelity incumbent, and the curve
// carries the previous best across partial trials.
func TestSessionPartialFidelityNeverHoldsIncumbency(t *testing.T) {
	target := newFidelityStub()
	s := NewSession(context.Background(), target, Budget{Trials: 3})
	good := target.Space().Default().With("x", 0.2)
	cheap := target.Space().Default().With("x", 0.0)
	runCandidate(t, s, target, Candidate{Config: good, Fidelity: 1})
	runCandidate(t, s, target, Candidate{Config: cheap, Fidelity: 0.1})
	_, bestRes := s.Best()
	if !bestRes.FullFidelity() {
		t.Fatalf("incumbent went to a partial-fidelity trial: %+v", bestRes)
	}
	res := s.Finish("x", Config{})
	curve := res.Curve()
	if curve[1] != curve[0] {
		t.Errorf("curve dipped on a partial-fidelity trial: %v", curve)
	}
	if n := res.TrialsToWithin(bestRes.Time, 0.5); n != 0 {
		t.Errorf("TrialsToWithin matched a partial trial: %d", n)
	}
}

// finiteProposer hands out a fixed number of configurations in total, then
// reports itself exhausted — the grid-ran-out shape.
type finiteProposer struct {
	space *Space
	rng   *rand.Rand
	left  int
}

func (p *finiteProposer) Propose(n int) []Config {
	if n > p.left {
		n = p.left
	}
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.space.Random(p.rng))
	}
	p.left -= n
	return out
}
func (p *finiteProposer) Observe(Trial) {}

type finiteTuner struct{ p *finiteProposer }

func (t *finiteTuner) Name() string                                          { return "finite" }
func (t *finiteTuner) NewProposer(target Target, b Budget) (Proposer, error) { return t.p, nil }

// TestMultiFidelityUnderDeliveryStillReachesFullFidelity: when the inner
// proposer delivers fewer configurations than the base rung wants, the
// shrunk bracket still promotes its best survivor to a full-fidelity run —
// the session never ends with an empty incumbent.
func TestMultiFidelityUnderDeliveryStillReachesFullFidelity(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		target := newFidelityStub()
		inner := &finiteTuner{p: &finiteProposer{space: target.Space(), rng: rand.New(rand.NewSource(int64(k))), left: k}}
		mf, err := NewMultiFidelity(inner, StrategyHyperband, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := driveSchedule(context.Background(), mf, target, Budget{Trials: 50})
		if err != nil {
			t.Fatal(err)
		}
		full := 0
		for _, tr := range res.Trials {
			if tr.Result.FullFidelity() {
				full++
			}
		}
		if full == 0 {
			t.Fatalf("k=%d: no full-fidelity trial ran; trials=%d", k, len(res.Trials))
		}
		if !res.Best.Valid() || res.BestResult.Time == 0 {
			t.Fatalf("k=%d: session ended without an incumbent: %+v", k, res.BestResult)
		}
		if len(res.Trials) > 50 {
			t.Fatalf("k=%d: budget exceeded with %d trials", k, len(res.Trials))
		}
	}
}
