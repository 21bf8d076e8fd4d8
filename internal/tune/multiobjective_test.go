package tune

import (
	"math"
	"testing"
)

// fakeBatchTuner records the budget its proposers are built with.
type fakeBatchTuner struct {
	name    string
	budgets []Budget
	mk      func() Proposer
}

func (f *fakeBatchTuner) Name() string { return f.name }

func (f *fakeBatchTuner) NewProposer(_ Target, b Budget) (Proposer, error) {
	f.budgets = append(f.budgets, b)
	if f.mk != nil {
		return f.mk(), nil
	}
	return &scriptProposer{}, nil
}

func TestNewMultiObjectiveValidates(t *testing.T) {
	space := driftSpace()
	sub := func() Proposer { return &scriptProposer{cfgs: []Config{space.Default()}} }
	if _, err := NewMultiObjective(nil, nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := NewMultiObjective([]Proposer{sub()}, []float64{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewMultiObjective([]Proposer{sub()}, []float64{1.5}); err == nil {
		t.Error("out-of-range weight accepted")
	}
	if _, err := NewMultiObjective([]Proposer{sub(), sub()}, []float64{0, 1}); err != nil {
		t.Errorf("valid sweep rejected: %v", err)
	}
}

// TestMultiObjectiveLapCap: a driver's first call asks for the whole
// remaining budget; the sweep must answer with at most one config per sub —
// the cap that keeps every sub one observation round-trip behind the trials.
func TestMultiObjectiveLapCap(t *testing.T) {
	space := driftSpace()
	mkSub := func(a float64) *scriptProposer {
		var cfgs []Config
		for i := 0; i < 10; i++ {
			cfgs = append(cfgs, space.Default().With("a", a))
		}
		return &scriptProposer{cfgs: cfgs}
	}
	subs := []Proposer{mkSub(0.1), mkSub(0.5), mkSub(0.9)}
	m, err := NewMultiObjective(subs, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Propose(100)
	if len(got) != 3 {
		t.Fatalf("Propose(100) returned %d configs, want one lap of 3", len(got))
	}
	// Round-robin order: one from each sub in weight order.
	for i, want := range []float64{0.1, 0.5, 0.9} {
		if a := got[i].Float("a"); a != want {
			t.Errorf("lap position %d came from the wrong sub: a = %v, want %v", i, a, want)
		}
	}
	// A sub that declines is skipped; the lap ends when all decline.
	empty := []Proposer{&scriptProposer{}, mkSub(0.7)}
	m2, err := NewMultiObjective(empty, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Propose(4); len(got) != 2 {
		t.Fatalf("lap over one empty sub returned %d, want 2", len(got))
	}
	exhausted, _ := NewMultiObjective([]Proposer{&scriptProposer{}, &scriptProposer{}}, []float64{0, 1})
	if got := exhausted.Propose(4); len(got) != 0 {
		t.Fatalf("exhausted sweep proposed %d configs, want 0", len(got))
	}
}

// TestMultiObjectiveBroadcastScalarizes: every sub sees every trial with
// its own weighted-geometric-mean scalarization, scales frozen at the
// first full-fidelity non-failed observation.
func TestMultiObjectiveBroadcastScalarizes(t *testing.T) {
	space := driftSpace()
	latSub, costSub := &scriptProposer{}, &scriptProposer{}
	m, err := NewMultiObjective([]Proposer{latSub, costSub}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	mkTrial := func(time, cost float64) Trial {
		tr := obs(space, 0.5, time)
		tr.Result.Cost = cost
		return tr
	}
	m.Observe(mkTrial(4, 2)) // freezes objScale=4, costScale=2
	m.Observe(mkTrial(8, 1))
	for _, sub := range []*scriptProposer{latSub, costSub} {
		if len(sub.observed) != 2 {
			t.Fatalf("sub saw %d trials, want every one of 2", len(sub.observed))
		}
	}
	// w=0: pure latency ratio. w=1: pure cost ratio.
	checks := []struct {
		sub  *scriptProposer
		want []float64
	}{
		{latSub, []float64{1, 2}},    // 4/4, 8/4
		{costSub, []float64{1, 0.5}}, // 2/2, 1/2
	}
	for si, c := range checks {
		for i, want := range c.want {
			if got := c.sub.observed[i].Result.Time; math.Abs(got-want) > 1e-12 {
				t.Errorf("sub %d trial %d scalar = %v, want %v", si, i, got, want)
			}
		}
	}
	// A mixed weight is the geometric mean of the two ratios.
	midSub := &scriptProposer{}
	mid, _ := NewMultiObjective([]Proposer{midSub}, []float64{0.5})
	mid.Observe(mkTrial(4, 2))
	mid.Observe(mkTrial(8, 1))
	want := math.Sqrt(2 * 0.5)
	if got := midSub.observed[1].Result.Time; math.Abs(got-want) > 1e-12 {
		t.Errorf("w=0.5 scalar = %v, want sqrt(2·0.5) = %v", got, want)
	}
}

// TestMultiObjectiveScaleFreezeSkipsUnusable: failed and partial-fidelity
// results cannot set the scales — the first clean full-fidelity trial does.
func TestMultiObjectiveScaleFreezeSkipsUnusable(t *testing.T) {
	space := driftSpace()
	sub := &scriptProposer{}
	m, _ := NewMultiObjective([]Proposer{sub}, []float64{0})
	bad := obs(space, 0.5, 100)
	bad.Result.Failed = true
	m.Observe(bad)
	partial := obs(space, 0.5, 50)
	partial.Result.Fidelity = 0.3
	m.Observe(partial)
	if m.objScale != 0 {
		t.Fatalf("scales froze on an unusable trial: objScale = %v", m.objScale)
	}
	good := obs(space, 0.5, 4)
	good.Result.Cost = 2
	m.Observe(good)
	if m.objScale != 4 || m.costScale != 2 {
		t.Fatalf("scales = (%v, %v), want (4, 2)", m.objScale, m.costScale)
	}
}

// TestMultiObjectiveTunerSplitsBudget: each sub-search is built with its
// round-robin share of the trials, not the whole session's.
func TestMultiObjectiveTunerSplitsBudget(t *testing.T) {
	subs := make([]BatchTuner, 4)
	fakes := make([]*fakeBatchTuner, 4)
	for i := range subs {
		fakes[i] = &fakeBatchTuner{name: "sub"}
		subs[i] = fakes[i]
	}
	mo, err := MultiObjectiveTuner(subs, DefaultParetoWeights)
	if err != nil {
		t.Fatal(err)
	}
	if got := mo.Name(); got != "sub+pareto" {
		t.Errorf("name = %q", got)
	}
	bt := mo.(BatchTuner)
	if _, err := bt.NewProposer(nil, Budget{Trials: 30}); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if len(f.budgets) != 1 || f.budgets[0].Trials != 30/4 {
			t.Errorf("sub %d built with %+v, want a %d-trial share", i, f.budgets, 30/4)
		}
	}
}

// TestMultiObjectiveRecommendIsLatencyLeaning: "best" keeps its
// single-objective meaning — the lowest-cost-weight sub recommends.
func TestMultiObjectiveRecommendIsLatencyLeaning(t *testing.T) {
	space := driftSpace()
	latency := &recommendProposer{rec: space.Default().With("a", 0.2)}
	cost := &recommendProposer{rec: space.Default().With("a", 0.9)}
	m, _ := NewMultiObjective([]Proposer{cost, latency}, []float64{1, 0})
	if got := m.Recommend().Float("a"); got != 0.2 {
		t.Errorf("recommended a = %v, want the latency sub's 0.2", got)
	}
}

type recommendProposer struct {
	scriptProposer
	rec Config
}

func (p *recommendProposer) Recommend() Config { return p.rec }
