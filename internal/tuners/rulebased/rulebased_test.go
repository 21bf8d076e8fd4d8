package rulebased

import (
	"testing"

	"repro/internal/tune"
)

func ruleSpace() *tune.Space {
	return tune.NewSpace(
		tune.LogFloat("buffer_pool_mb", 64, 16384, 128),
		tune.LogFloat("work_mem_mb", 1, 2048, 4),
		tune.Int("max_parallel_workers", 1, 32, 2),
		tune.Float("random_page_cost", 1, 10, 4),
	)
}

func TestRulebookAppliesOnlyKnownParams(t *testing.T) {
	book := DBMSRules() // names several params not in this reduced space
	specs := map[string]float64{"ram_mb": 8192, "cores": 8}
	features := map[string]float64{"clients": 8, "scan_frac": 0.5}
	cfg := book.Apply(ruleSpace(), specs, features)
	if v := cfg.Float("buffer_pool_mb"); v < 2000 || v > 2100 {
		t.Errorf("buffer rule: %v, want 25%% of 8192", v)
	}
	if cfg.Int("max_parallel_workers") != 8 {
		t.Errorf("workers rule: %d", cfg.Int("max_parallel_workers"))
	}
}

func TestRulebooksDocumentReasons(t *testing.T) {
	for _, book := range []*Rulebook{DBMSRules(), HadoopRules(), SparkRules()} {
		for _, r := range book.Rules {
			if r.Reason == "" {
				t.Errorf("%s rule %q lacks a reason", book.System, r.Param)
			}
			if r.Value == nil {
				t.Errorf("%s rule %q lacks a value function", book.System, r.Param)
			}
		}
	}
}

func TestRangeConstraint(t *testing.T) {
	c := RangeConstraint{Param: "random_page_cost", Lo: 1, Hi: 10}
	space := ruleSpace()
	ok := space.Default().With("random_page_cost", 5.0)
	if msg := c.Check(ok, nil); msg != "" {
		t.Errorf("valid config flagged: %s", msg)
	}
}

func TestSumSpecConstraint(t *testing.T) {
	space := ruleSpace()
	c := SumSpecConstraint{
		Params:  []string{"buffer_pool_mb", "work_mem_mb"},
		Weights: []float64{1, 32},
		SpecKey: "ram_mb",
		Factor:  0.9,
	}
	specs := map[string]float64{"ram_mb": 8192}
	bad := space.Default().With("buffer_pool_mb", 8000.0).With("work_mem_mb", 512.0)
	if c.Check(bad, specs) == "" {
		t.Fatal("oversubscription not detected")
	}
	fits := bad.With("buffer_pool_mb", 2048.0).With("work_mem_mb", 64.0)
	if msg := c.Check(fits, specs); msg != "" {
		t.Errorf("config within the budget flagged: %s", msg)
	}
	// Missing spec key: constraint is inert, never panics.
	if c.Check(bad, map[string]float64{}) != "" {
		t.Error("missing spec should disable the constraint")
	}
}

func TestNavigatorStopsAtBudget(t *testing.T) {
	// Covered end-to-end in tuners_test; here the design's size: the default,
	// then one sweep of navLevels values per parameter, clamped to the space.
	p, err := NewNavigator().NewProposer(spaceTarget{ruleSpace()}, tune.Budget{Trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	proposed := 0
	for batch := p.Propose(100); len(batch) > 0; batch = p.Propose(100) {
		for _, cfg := range batch {
			proposed++
			p.Observe(tune.Trial{N: proposed, Config: cfg, Result: tune.Result{Time: 1}})
		}
	}
	if want := 1 + ruleSpace().Dim()*navLevels; proposed != want {
		t.Errorf("navigator proposed %d configurations, want %d", proposed, want)
	}
}

// spaceTarget is a target over a bare space, for proposers that only read it.
type spaceTarget struct{ space *tune.Space }

func (s spaceTarget) Name() string                { return "dbms/rules" }
func (s spaceTarget) Space() *tune.Space          { return s.space }
func (s spaceTarget) Run(tune.Config) tune.Result { return tune.Result{Time: 1} }
