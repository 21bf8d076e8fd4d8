package bench

import (
	"fmt"

	"repro"
	"repro/internal/tune"
)

// FidelityReachFactor is the incumbent-parity tolerance: a session has
// "reached the full-fidelity incumbent" at the first full-fidelity trial
// within this factor of the full run's final best.
const FidelityReachFactor = 1.10

// Fidelity measures multi-fidelity tuning — the budget-aware experiment
// allocation every surveyed tuner ultimately pays for. Full-fidelity iTuned
// spends one complete workload run per trial; Hyperband-iTuned (and the
// single successive-halving bracket) screen the same proposer's
// configurations at 1/9 and 1/3 of the workload first and promote only rung
// survivors to full runs, early-stopping the rest (TrialPruned). All
// variants share the trial budget, the seed, and the target noise stream,
// so rows differ only in how the budget is allocated across fidelities.
//
// The headline column is "cost to reach full incumbent": the cumulative
// simulated evaluation seconds spent when the session first has a
// full-fidelity result within FidelityReachFactor of the full-fidelity
// run's final best. Multi-fidelity reaching parity at a fraction of the
// cost is the order-of-magnitude claim; it holds here because a
// sampled-ops DBMS workload ranks configurations faithfully at low
// fidelity (see DESIGN.md §11 for when it would not).
func Fidelity(o Options) (*Table, error) {
	t := &Table{
		Title: "E10 (fidelity): successive-halving/Hyperband vs full-fidelity tuning (dbms/tpch)",
		Columns: []string{
			"approach", "trials", "full-fidelity runs", "pruned", "best",
			"eval cost", "cost to reach full incumbent", "cost ratio",
		},
	}
	b := o.budget()
	if b.Trials < 22 {
		// One default Hyperband sweep is 22 trials; smaller budgets still
		// run (a clipped bracket keeps a full-fidelity top rung) but the
		// comparison is only interesting with at least one whole sweep.
		b.Trials = 22
	}
	variants := []struct {
		approach string
		fidelity *repro.FidelitySpec
	}{
		{"iTuned (full fidelity)", nil},
		{"Hyperband-iTuned", &repro.FidelitySpec{Strategy: tune.StrategyHyperband}},
		{"SuccessiveHalving-iTuned", &repro.FidelitySpec{Strategy: tune.StrategyHalving}},
	}
	var cells []cell
	for _, v := range variants {
		cells = append(cells, cell{spec: repro.Spec{
			System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: o.Seed, Budget: b,
			Target: repro.TargetOptions{ScaleGB: o.scaleGB(3, 2)}, Fidelity: v.fidelity,
		}})
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}

	fullBest := sessions[0].result.BestResult.Time
	fullCost := sessions[0].result.SimTimeUsed
	for i, s := range sessions {
		res := s.result
		full := 0
		for _, tr := range res.Trials {
			if tr.Result.FullFidelity() {
				full++
			}
		}
		pruned := s.run.Progress().TrialsPruned
		reach := ReachCost(res, fullBest, FidelityReachFactor)
		reachS, ratioS := "never", "—"
		if reach >= 0 {
			reachS = fmtSeconds(reach)
			ratioS = fmt.Sprintf("%.0f%%", 100*reach/fullCost)
		}
		t.AddRow(variants[i].approach,
			fmt.Sprintf("%d", len(res.Trials)),
			fmt.Sprintf("%d", full),
			fmt.Sprintf("%d", pruned),
			fmtSeconds(res.BestResult.Time),
			fmtSeconds(res.SimTimeUsed),
			reachS, ratioS)
	}
	t.Note("budget %d trials each at seed %d; fidelity ladder 1/9 → 1/3 → 1 (η=3); reach = first full-fidelity trial within %.0f%% of the full run's final best",
		b.Trials, o.Seed, 100*(FidelityReachFactor-1))
	t.Note("cost ratio = reach cost / the full-fidelity run's total evaluation cost (%.0fs); results identical at any -parallel", fullCost)
	return t, nil
}

// ReachCost returns the cumulative simulated evaluation cost at the first
// full-fidelity, non-failed trial whose time is within factor×reference, or
// -1 if the session never got there. Low-fidelity screens count toward the
// cost — that is the price of the schedule — but cannot satisfy the
// reach condition.
func ReachCost(res *tune.TuningResult, reference, factor float64) float64 {
	limit := reference * factor
	cost := 0.0
	for _, tr := range res.Trials {
		cost += tr.Result.Time
		if !tr.Result.Failed && tr.Result.FullFidelity() && tr.Result.Time <= limit {
			return cost
		}
	}
	return -1
}
