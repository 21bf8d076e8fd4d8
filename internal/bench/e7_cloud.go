package bench

import (
	"fmt"

	"repro"
	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
)

// Cloud probes the paper's second open challenge (§2.5): decision making in
// cloud settings. Part A measures how multi-tenant interference degrades a
// tuner's result quality (the same budget buys less signal when every run is
// noisy). Part B does joint provisioning + tuning: pick the cluster size and
// the configuration that minimize dollar cost subject to a deadline —
// the cluster-sizing problem Unravel/Tempo-style systems face.
func Cloud(o Options) (*Table, error) {
	t := &Table{
		Title:   "E7 (§2.5-2): cloud — multi-tenant noise and cost-aware provisioning",
		Columns: []string{"scenario", "value"},
	}
	gb := o.scaleGB(30, 3)
	b := o.budget()
	terasort := func(tuner string, seed int64, b tune.Budget, topts repro.TargetOptions) cell {
		topts.ScaleGB = gb
		return cell{spec: repro.Spec{System: "hadoop", Workload: "terasort", Tuner: tuner, Seed: seed, Budget: b, Target: topts}}
	}

	// Part A: the same tuner, seed and budget under rising tenant load (the
	// registry's tenants jitter by half their load).
	tenants := []struct {
		label string
		load  float64
	}{
		{"dedicated cluster", 0},
		{"moderate tenants (30% ±15%)", 0.3},
		{"heavy tenants (60% ±30%)", 0.6},
	}
	// Part B: joint cluster sizing + tuning under a deadline.
	sizes := []int{4, 8, 16, 32}
	var cells []cell
	for _, tenant := range tenants {
		cells = append(cells, terasort("ituned", o.Seed+81, b, repro.TargetOptions{TenantLoad: tenant.load}))
	}
	for _, n := range sizes {
		cells = append(cells, terasort("ituned", o.Seed+83+int64(n), tune.Budget{Trials: b.Trials / 2}, repro.TargetOptions{Nodes: n}))
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}

	for i, tenant := range tenants {
		// The default and the chosen config are both re-run on the session's
		// own target after it finished (fresh noise draws).
		s := sessions[i]
		def := DefaultTime(s.job.Target, 5)
		chosen := averageRun(s.job.Target, s.result.Best, 5)
		t.AddRow("tuning under "+tenant.label,
			fmt.Sprintf("default %s → tuned %s (%s)", fmtSeconds(def), fmtSeconds(chosen),
				fmtSpeedup(speedup(def, chosen))))
	}

	deadline := 600.0
	if o.Fast {
		deadline = 400.0
	}
	bestCost, bestSize, bestTime := -1.0, 0, 0.0
	for i, n := range sizes {
		time := sessions[len(tenants)+i].result.BestResult.Time
		cost := cluster.Commodity(n).DollarCost(time)
		label := fmt.Sprintf("%d nodes: %s, $%.3f/run", n, fmtSeconds(time), cost)
		if time > deadline {
			label += " (misses deadline)"
		} else if bestCost < 0 || cost < bestCost {
			bestCost, bestSize, bestTime = cost, n, time
		}
		t.AddRow(fmt.Sprintf("provisioning candidate (%d nodes)", n), label)
	}
	if bestSize > 0 {
		t.AddRow("cost-optimal choice",
			fmt.Sprintf("%d nodes at $%.3f/run (%s, deadline %s)",
				bestSize, bestCost, fmtSeconds(bestTime), fmtSeconds(deadline)))
	}
	t.Note("part A: identical tuner and budget; only tenant interference varies")
	t.Note("part B: terasort %0.0f GB, deadline %s, price $0.40/node-hour", gb, fmtSeconds(deadline))
	return t, nil
}
