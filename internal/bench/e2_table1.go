package bench

import (
	"fmt"

	"repro"
	"repro/internal/tune"
)

// Table1 regenerates the paper's Table 1 quantitatively: one representative
// tuner per category runs against all three systems under an identical trial
// budget. For each (category, system) cell it reports the speedup over the
// default configuration, the number of real runs consumed, and the tuning
// cost in cumulative simulated time — making the qualitative
// strengths/weaknesses matrix measurable:
//
//   - rule-based and cost modeling spend ≤1 run but plateau early,
//   - simulation predicts cheaply but misses dynamics,
//   - experiment-driven and ML find the best configurations at the highest
//     run cost (ML converging faster thanks to repository transfer),
//   - adaptive needs no offline runs at all and improves the live workload,
//     at the risk of bad probe epochs.
func Table1(o Options) (*Table, error) {
	t := &Table{
		Title: "E2 (Table 1): six tuning categories × three systems",
		Columns: []string{
			"category", "tuner",
			"dbms speedup", "runs", "tuning cost",
			"hadoop speedup", "runs", "tuning cost",
			"spark speedup", "runs", "tuning cost",
		},
	}
	b := o.budget()

	// One workload per system; proxy is the scaled replica the simulation
	// category searches on Hadoop and Spark.
	systems := []struct {
		system, workload string
		scale, proxy     float64
		def              float64
		repo             *tune.Repository
	}{
		{system: "dbms", workload: "tpch", scale: o.scaleGB(10, 2)},
		{system: "hadoop", workload: "terasort", scale: o.scaleGB(50, 4), proxy: o.scaleGB(5, 1)},
		{system: "spark", workload: "pagerank", scale: o.scaleGB(5, 1), proxy: o.scaleGB(1, 0.3)},
	}
	for j := range systems {
		s := &systems[j]
		target, err := repro.NewTarget(s.system, s.workload, o.Seed+900+int64(j), repro.TargetOptions{ScaleGB: s.scale})
		if err != nil {
			return nil, err
		}
		s.def = DefaultTime(target, 3)
		if s.repo, err = BuildRepository(o, s.system, s.workload); err != nil {
			return nil, err
		}
	}

	rows := []struct {
		category, label string
		tuners          [3]string // dbms, hadoop, spark
	}{
		{"Rule-based", "expert rulebooks", [3]string{"rules", "rules", "rules"}},
		{"Cost modeling", "STMM / Starfish / Ernest", [3]string{"stmm", "starfish", "ernest"}},
		{"Simulation", "trace what-if / scaled replica", [3]string{"trace-whatif", "scaled-proxy", "scaled-proxy"}},
		{"Experiment-driven", "iTuned (LHS+GP+EI)", [3]string{"ituned", "ituned", "ituned"}},
		{"Machine learning", "OtterTune (with repository)", [3]string{"ottertune", "ottertune", "ottertune"}},
		{"Adaptive", "COLT online / recommender", [3]string{"colt", "recommender", "colt"}},
	}
	// Every (category, system) cell is an independent session with its own
	// target and seed.
	var cells []cell
	for i, row := range rows {
		for j, s := range systems {
			spec := repro.Spec{
				System: s.system, Workload: s.workload, Tuner: row.tuners[j],
				Seed:   o.Seed + int64(i+1)*31 + int64(j+1),
				Budget: b,
				Target: repro.TargetOptions{ScaleGB: s.scale},
			}
			if spec.Tuner == "scaled-proxy" {
				spec.Proxy = &repro.ProxySpec{ScaleGB: s.proxy}
			}
			cells = append(cells, cell{spec: spec, corpus: s.repo})
		}
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		out := []any{row.category, row.label}
		for j, s := range systems {
			ses := sessions[i*len(systems)+j]
			out = append(out,
				fmtSpeedup(speedup(s.def, ses.bestTime())),
				fmt.Sprintf("%d", len(ses.result.Trials)),
				fmtSeconds(ses.result.SimTimeUsed))
		}
		t.AddRow(out...)
	}

	t.Note("budget %d trials per tuner; defaults: dbms %s, hadoop %s, spark %s",
		b.Trials, fmtSeconds(systems[0].def), fmtSeconds(systems[1].def), fmtSeconds(systems[2].def))
	t.Note("tuning cost = cumulative simulated time of real runs; adaptive runs count whole online executions")
	return t, nil
}
