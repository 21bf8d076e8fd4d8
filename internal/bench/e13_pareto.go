package bench

import (
	"fmt"

	"repro"
	"repro/internal/tune"
)

// Pareto measures multi-objective tuning: latency vs dollar cost on the
// DBMS, whose cost model prices the provisioned footprint (memory,
// connection slots) rather than scaling with elapsed time — so the two
// objectives genuinely conflict. Single-objective iTuned optimizes latency
// alone; the multi-objective sweep (Spec.Pareto) fans the same
// tuner across scalarization weights from pure-latency to pure-cost. Both
// runs are scored by the Pareto front over their trials (tune.ParetoFront,
// the front the sweep's session tracks), so the comparison is front
// quality: normalized hypervolume over the union of both fronts
// (tune.NormalizedHypervolume), and front breadth (cost spread).
//
// The claim reproduced: a latency-only search piles its trials onto the
// fast-but-expensive corner, so the front it incidentally uncovers covers a
// sliver of the trade-off; the weighted sweep maps it, dominating strictly
// more of objective space for the same trial budget.
func Pareto(o Options) (*Table, error) {
	t := &Table{
		Title: "E13 (pareto): latency-vs-cost multi-objective tuning (dbms/tpch)",
		Columns: []string{
			"approach", "trials", "front size", "best latency",
			"cheapest front point", "cost spread", "hypervolume", "hv gain",
		},
	}
	b := o.budget()
	// Mapping a two-dimensional front needs coverage a single-objective
	// budget does not: with K=4 sub-searches each weight gets only a quarter
	// of the trials, and below ~15 per sub the design phase never hands off
	// to the model. 60 trials is the smallest budget where every corner of
	// the trade-off gets a model-guided search.
	if b.Trials < 60 {
		b.Trials = 60
	}
	single := repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: o.Seed, Budget: b,
		Target: repro.TargetOptions{ScaleGB: o.scaleGB(3, 2)}}
	multi := single
	multi.Pareto = true
	sessions, err := runCells(o, []cell{
		{spec: single},
		{spec: multi},
	})
	if err != nil {
		return nil, err
	}
	approaches := []string{"iTuned (latency only)", "iTuned × weights (multi-objective)"}

	// Both fronts scored on the unit square spanned by their union, so the
	// hypervolumes are comparable and not drowned by outlier trials.
	fronts := [][]tune.Trial{tune.ParetoFront(sessions[0].result.Trials), tune.ParetoFront(sessions[1].result.Trials)}
	hvs := tune.NormalizedHypervolume(fronts...)

	var baseHV float64
	for i, s := range sessions {
		res := s.result
		front := fronts[i]
		hv := hvs[i]
		minCost, maxCost := frontCostRange(front)
		gain := "—"
		if i == 0 {
			baseHV = hv
		} else if baseHV > 0 {
			gain = fmt.Sprintf("%.0f%%", 100*(hv-baseHV)/baseHV)
		}
		t.AddRow(approaches[i],
			fmt.Sprintf("%d", len(res.Trials)),
			fmt.Sprintf("%d", len(front)),
			fmtSeconds(res.BestResult.Time),
			fmt.Sprintf("$%.4f", minCost),
			fmt.Sprintf("$%.4f", maxCost-minCost),
			fmt.Sprintf("%.4f", hv),
			gain)
	}
	t.Note("budget %d trials each at seed %d; weights %v (cost weight per sub-search); hypervolume normalized over the union of both fronts",
		b.Trials, o.Seed, tune.DefaultParetoWeights)
	t.Note("cost = flat provisioned-footprint dollars (base + memory + connection slots), independent of elapsed time; results identical at any -parallel")
	return t, nil
}

// frontCostRange returns the cheapest and dearest cost on the front.
func frontCostRange(front []tune.Trial) (min, max float64) {
	for i, tr := range front {
		c := tr.Result.Cost
		if i == 0 || c < min {
			min = c
		}
		if i == 0 || c > max {
			max = c
		}
	}
	return min, max
}
