// dbms-tuning compares one representative of every tuning category from the
// paper's Table 1 on the same DBMS workload under the same trial budget —
// the survey's central comparison, runnable at your desk.
//
// It also demonstrates the OtterTune transfer effect: the ML tuner runs
// twice, once cold and once with a repository of past sessions over other
// workloads, to show what workload mapping buys.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
	"repro/internal/tune"
)

func main() {
	ctx := context.Background()
	budget := tune.Budget{Trials: 30}
	seed := int64(7)

	fresh := func() repro.Target {
		t, err := repro.NewTarget("dbms", "mixed", seed)
		if err != nil {
			log.Fatal(err)
		}
		return t
	}
	def := fresh().Run(fresh().Space().Default())
	fmt.Printf("workload dbms/mixed — default runs in %.0fs\n\n", def.Time)

	// Build a small repository from two other workloads for the ML tuner.
	repo := &repro.Repository{}
	for i, wl := range []string{"tpch", "oltp"} {
		past, err := repro.NewTarget("dbms", wl, seed+int64(i+1))
		if err != nil {
			log.Fatal(err)
		}
		it, _ := repro.NewTuner("ituned", repro.TunerOptions{Seed: seed + int64(i)})
		r, err := repro.Tune(ctx, past, it, tune.Budget{Trials: 20}, 1)
		if err != nil {
			log.Fatal(err)
		}
		var features map[string]float64
		if d, ok := past.(interface{ WorkloadFeatures() map[string]float64 }); ok {
			features = d.WorkloadFeatures()
		}
		repo.AddResult("dbms", wl, features, r)
	}

	type entry struct {
		category string
		name     string
		opts     repro.TunerOptions
	}
	entries := []entry{
		{"rule-based", "rules", repro.TunerOptions{TargetName: "dbms/mixed"}},
		{"cost modeling", "stmm", repro.TunerOptions{}},
		{"simulation", "addm", repro.TunerOptions{}},
		{"experiment-driven", "ituned", repro.TunerOptions{Seed: seed}},
		{"machine learning (cold)", "ottertune", repro.TunerOptions{Seed: seed}},
		{"machine learning (repo)", "ottertune", repro.TunerOptions{Seed: seed, Repo: repo, TargetName: "dbms/mixed"}},
		{"adaptive", "colt", repro.TunerOptions{Seed: seed}},
	}
	fmt.Printf("%-26s %-22s %8s %6s %12s\n", "category", "tuner", "best", "runs", "speedup")
	for _, e := range entries {
		tn, err := repro.NewTuner(e.name, e.opts)
		if err != nil {
			log.Fatal(err)
		}
		target := fresh()
		r, err := repro.Tune(ctx, target, tn, budget, 1)
		if err != nil {
			log.Fatal(err)
		}
		best := r.BestResult
		if len(r.Trials) == 0 {
			best = target.Run(r.Best)
		}
		fmt.Printf("%-26s %-22s %7.0fs %6d %11.2fx\n",
			e.category, tn.Name(), best.Time, len(r.Trials), def.Time/best.Time)
	}
}
