package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/tune"
)

// TestSpecCrossProduct is "accepted means runnable": every registered tuner ×
// four targets × sixteen session shapes (one with remote evaluator slots) at
// a 12-trial budget is either refused when the job is built (Validate /
// JobWithWarm — the daemon's 400) or runs to a result whose trials are
// identical at any Parallel — and, for a tuner whose search has no natural
// end, that spent its trial budget. A spec that is accepted and then fails
// from Run.Wait, or quietly stops short, is the bug this test exists to
// catch.
func TestSpecCrossProduct(t *testing.T) {
	targets := []struct{ system, workload string }{
		{"dbms", "tpch"}, {"spark", "pagerank"}, {"hadoop", "terasort"}, {"dbms", "oltp-olap-shift"},
	}
	shapes := []struct {
		name  string
		apply func(*Spec)
		// slots, when > 0, gives the job a stub evaluator fleet of that many
		// remote slots, evaluating on a mirror of the target.
		slots int
	}{
		{name: "plain", apply: func(*Spec) {}},
		{name: "memo", apply: func(s *Spec) { s.Memo = true }},
		{name: "parallel 4", apply: func(s *Spec) { s.Parallel = 4 }},
		{name: "hyperband", apply: func(s *Spec) { s.Fidelity = &FidelitySpec{Strategy: "hyperband"} }},
		{name: "halving", apply: func(s *Spec) { s.Fidelity = &FidelitySpec{Strategy: "halving"} }},
		{name: "pareto", apply: func(s *Spec) { s.Pareto = true }},
		{name: "guardrail", apply: func(s *Spec) { s.Guardrail = 1200 }},
		{name: "drift_detect", apply: func(s *Spec) { s.DriftDetect = true }},
		{name: "pareto+guardrail+drift", apply: func(s *Spec) { s.Pareto, s.Guardrail, s.DriftDetect = true, 1200, true }},
		{name: "sim_time", apply: func(s *Spec) { s.Budget.SimTime = 4000 }},
		{name: "fidelity+memo+parallel", apply: func(s *Spec) { s.Fidelity, s.Memo, s.Parallel = &FidelitySpec{}, true, 2 }},
		{name: "surrogate sparse", apply: func(s *Spec) { s.Surrogate = &SurrogateSpec{Tier: "sparse"} }},
		{name: "surrogate rff", apply: func(s *Spec) { s.Surrogate = &SurrogateSpec{Tier: "rff"} }},
		// Exact → sparse → RFF inside the 12-trial session.
		{name: "surrogate switch", apply: func(s *Spec) { s.Surrogate = &SurrogateSpec{SparseAbove: 3, RFFAbove: 7} }},
		{name: "remote slots", apply: func(*Spec) {}, slots: 2},
	}
	// The sequential-body tuners: only a fidelity schedule may refuse them (a
	// bracket cannot be filled one dependent configuration at a time).
	ported := map[string]bool{"rrs": true, "sard": true, "adaptive-sampling": true, "addm": true}
	// Tuners that search until told to stop: accepted, they run every trial of
	// the budget unless sim_time cuts it first. The others finish by design —
	// one recommendation and its verification, a factorial grid, a diagnosis
	// with no finding left, the adaptive family's controlled runs.
	searches := map[string]bool{"random": true, "rrs": true, "sard": true, "adaptive-sampling": true,
		"ituned": true, "ottertune": true, "neural": true}

	eng := NewEngine(EngineOptions{Workers: 4})
	ctx := context.Background()
	for _, builtin := range builtinTuners {
		tuner := builtin.name
		t.Run(tuner, func(t *testing.T) {
			t.Parallel() // neural and scaled-proxy are most of the wall-clock
			ran, refused := 0, 0
			for _, tg := range targets {
				for _, shape := range shapes {
					spec := Spec{System: tg.system, Workload: tg.workload, Tuner: tuner, Seed: 5, Budget: Budget{Trials: 12}}
					if tuner == "scaled-proxy" {
						spec.Proxy = &ProxySpec{ScaleGB: 0.1, Nodes: 2}
					}
					shape.apply(&spec)
					label := fmt.Sprintf("%s/%s %s", tg.system, tg.workload, shape.name)
					var want []byte
					for _, parallel := range []int{spec.Parallel, 3} {
						spec.Parallel = parallel
						job, err := spec.Job()
						if err != nil {
							if want != nil {
								t.Errorf("%s: refused at parallel %d only: %v", label, parallel, err)
							} else if ported[tuner] && spec.Fidelity == nil {
								t.Errorf("%s: refused: %v", label, err)
							}
							refused++
							break
						}
						if shape.slots > 0 {
							job.Remote = newMirrorBackend(t, spec, shape.slots)
						}
						res, err := eng.SubmitContext(ctx, job).Wait(ctx)
						if err != nil {
							t.Errorf("%s: accepted, then failed at parallel %d: %v", label, parallel, err)
							break
						}
						if cut := spec.Budget.SimTime > 0 && res.SimTimeUsed >= spec.Budget.SimTime; searches[tuner] && len(res.Trials) < spec.Budget.Trials && !cut {
							t.Errorf("%s: accepted, then ended after %d of %d trials at parallel %d", label, len(res.Trials), spec.Budget.Trials, parallel)
							break
						}
						got, err := json.Marshal(res.Trials)
						if err != nil {
							t.Fatal(err)
						}
						if want == nil {
							want = got
							ran++
						} else if !bytes.Equal(want, got) {
							t.Errorf("%s: trials differ between parallel %d and 3", label, spec.Parallel)
						}
					}
				}
			}
			if ran == 0 {
				t.Errorf("every one of %d specs was refused", refused)
			}
		})
	}
}

func TestSpecCrossProductRace3(t *testing.T) { TestSpecCrossProduct(t) }

// mirrorBackend is a stub evaluator fleet. Its slots evaluate on a second
// instance of the spec's target, built from the same seed and options, as an
// evaluator process rebuilds the target from a trial assignment.
type mirrorBackend struct {
	space *tune.Space
	caps  tune.Capabilities
	slots int
}

func newMirrorBackend(t *testing.T, spec Spec, slots int) *mirrorBackend {
	t.Helper()
	target, err := NewTarget(spec.System, spec.Workload, spec.Seed, spec.Target)
	if err != nil {
		t.Fatal(err)
	}
	return &mirrorBackend{space: target.Space(), caps: tune.Resolve(target), slots: slots}
}

func (b *mirrorBackend) Slots() int { return b.slots }

func (b *mirrorBackend) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	return b.caps.Eval(ctx, idx, tune.Candidate{Config: b.space.FromVector(cfg.Vector()), Fidelity: f})
}
