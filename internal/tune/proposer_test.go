package tune

import (
	"context"
	"sync"
	"testing"
)

// flatTarget returns a fixed time per configuration, marking one point as
// failing.
type flatTarget struct {
	space *Space
	fail  string
}

func newFlatTarget() *flatTarget {
	return &flatTarget{space: NewSpace(Float("a", 0, 10, 5))}
}

func (s *flatTarget) Name() string  { return "stub/target" }
func (s *flatTarget) Space() *Space { return s.space }
func (s *flatTarget) Run(cfg Config) Result {
	if cfg.String() == s.fail {
		return Result{Time: 100, Failed: true, FailReason: "stub"}
	}
	return Result{Time: 1 + cfg.Float("a")}
}

func TestProposeFixed(t *testing.T) {
	s := newFlatTarget()
	pending := []Config{s.space.Default(), s.space.Default().With("a", 1.0), s.space.Default().With("a", 2.0)}
	if got := ProposeFixed(&pending, 2); len(got) != 2 {
		t.Fatalf("popped %d, want 2", len(got))
	}
	if got := ProposeFixed(&pending, 5); len(got) != 1 {
		t.Fatalf("popped %d, want the 1 left", len(got))
	}
	if got := ProposeFixed(&pending, 5); got != nil {
		t.Fatalf("empty list popped %d", len(got))
	}
}

func TestRecommendProposerRepairsFailedRecommendation(t *testing.T) {
	target := newFlatTarget()
	rec := target.space.Default().With("a", 9.0)
	target.fail = rec.String()
	repaired := target.space.Default().With("a", 2.0)
	p := NewRecommendProposer(rec, func(Config) Config { return repaired })

	r, err := DriveProposer(context.Background(), "stub", target, Budget{Trials: 5}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) != 2 {
		t.Fatalf("want recommendation + repair trials, got %d", len(r.Trials))
	}
	if r.Trials[1].Config.String() != repaired.String() {
		t.Fatalf("second trial is %s, want the repair", r.Trials[1].Config)
	}
	if r.Best.String() != repaired.String() {
		t.Fatalf("best is %s, want the repair", r.Best)
	}
}

func TestRecommendProposerZeroBudgetStillRecommends(t *testing.T) {
	target := newFlatTarget()
	rec := target.space.Default().With("a", 3.0)
	p := NewRecommendProposer(rec, nil)
	r, err := DriveProposer(context.Background(), "stub", target, Budget{Trials: 0}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) != 0 {
		t.Fatalf("zero budget ran %d trials", len(r.Trials))
	}
	if r.Best.String() != rec.String() {
		t.Fatalf("zero-budget best is %s, want the recommendation", r.Best)
	}
}

// TestSessionConcurrentRecording exercises the session under concurrent
// writers and readers; run with -race.
func TestSessionConcurrentRecording(t *testing.T) {
	target := newFlatTarget()
	s := NewSession(context.Background(), target, Budget{Trials: 1000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := target.space.Default().With("a", float64(w))
			for i := 0; i < 50; i++ {
				s.Record(Candidate{Config: cfg}, Result{Time: 1 + float64(w)})
				s.Best()
				s.Exhausted()
				s.SimTimeUsed()
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.Trials()); got != 400 {
		t.Fatalf("recorded %d trials, want 400", got)
	}
	best, res := s.Best()
	if res.Time != 1 || best.Float("a") != 0 {
		t.Fatalf("best should be the w=0 config, got %s at %v", best, res.Time)
	}
	for i, tr := range s.Trials() {
		if tr.N != i+1 {
			t.Fatalf("trial %d numbered %d", i, tr.N)
		}
	}
}
