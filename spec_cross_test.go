package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// TestSpecCrossProduct is "accepted means runnable": every registered tuner ×
// four targets × twelve session shapes at a 12-trial budget is either refused
// when the job is built (Validate / JobWithWarm — the daemon's 400) or runs to
// a result whose trials are identical at any Parallel. A spec that is accepted
// and then fails from Run.Wait is the bug this test exists to catch.
func TestSpecCrossProduct(t *testing.T) {
	targets := []struct{ system, workload string }{
		{"dbms", "tpch"}, {"spark", "pagerank"}, {"hadoop", "terasort"}, {"dbms", "oltp-olap-shift"},
	}
	shapes := []struct {
		name  string
		apply func(*Spec)
	}{
		{"plain", func(*Spec) {}},
		{"memo", func(s *Spec) { s.Memo = true }},
		{"memo_cap 3", func(s *Spec) { s.MemoCap = 3 }},
		{"parallel 4", func(s *Spec) { s.Parallel = 4 }},
		{"hyperband", func(s *Spec) { s.Fidelity = &FidelitySpec{Strategy: "hyperband"} }},
		{"halving", func(s *Spec) { s.Fidelity = &FidelitySpec{Strategy: "halving"} }},
		{"pareto", func(s *Spec) { s.Pareto = true }},
		{"guardrail", func(s *Spec) { s.Guardrail = 1200 }},
		{"drift_detect", func(s *Spec) { s.DriftDetect = true }},
		{"pareto+guardrail+drift", func(s *Spec) { s.Pareto, s.Guardrail, s.DriftDetect = true, 1200, true }},
		{"sim_time", func(s *Spec) { s.Budget.SimTime = 4000 }},
		{"fidelity+memo+parallel", func(s *Spec) { s.Fidelity, s.Memo, s.Parallel = &FidelitySpec{}, true, 2 }},
	}
	// The tuners that moved onto the drive loop last: no shape may refuse them.
	ported := map[string]bool{"rrs": true, "sard": true, "adaptive-sampling": true, "addm": true}

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
						run, err := StartOn(ctx, eng, spec)
						if err != nil {
							if want != nil {
								t.Errorf("%s: refused at parallel %d only: %v", label, parallel, err)
							} else if ported[tuner] && !(spec.Fidelity != nil && tg.workload == "oltp-olap-shift") {
								// (The drift workloads have no partial-fidelity path.)
								t.Errorf("%s: refused: %v", label, err)
							}
							refused++
							break
						}
						res, err := run.Wait(ctx)
						if err != nil {
							t.Errorf("%s: accepted, then failed at parallel %d: %v", label, parallel, err)
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
