// hadoop-tuning shows the cost-modeling trade the paper describes on a
// 50 GB TeraSort: the Starfish-style what-if model recommends a
// configuration after a single profiled run (near-zero tuning cost), while
// iTuned spends a budget of real runs to squeeze out the rest — and stock
// Hadoop defaults show why the paper calls misconfiguration "detrimental".
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
	seed := int64(11)

	fresh := func() repro.Target {
		t, err := repro.NewTarget("hadoop", "terasort", seed, repro.TargetOptions{ScaleGB: 50})
		if err != nil {
			log.Fatal(err)
		}
		return t
	}

	stock := fresh().Run(fresh().Space().Default())
	fmt.Printf("hadoop/terasort, 50 GB on 16 nodes\n")
	fmt.Printf("  stock defaults (1 reducer, 100 MB sort buffer): %.0fs\n\n", stock.Time)

	for _, name := range []string{"rules", "starfish", "ituned"} {
		tn, err := repro.NewTuner(name, repro.TunerOptions{Seed: seed, TargetName: "hadoop/terasort"})
		if err != nil {
			log.Fatal(err)
		}
		target := fresh()
		r, err := repro.Tune(ctx, target, tn, tune.Budget{Trials: 25}, 1)
		if err != nil {
			log.Fatal(err)
		}
		best := r.BestResult
		if len(r.Trials) == 0 {
			best = target.Run(r.Best)
		}
		fmt.Printf("%-22s best %6.0fs using %2d real runs (%.0fx over stock)\n",
			tn.Name(), best.Time, len(r.Trials), stock.Time/best.Time)
	}

	fmt.Println("\nkey knobs chosen by the what-if model:")
	tn, _ := repro.NewTuner("starfish", repro.TunerOptions{Seed: seed})
	target := fresh()
	r, err := repro.Tune(ctx, target, tn, tune.Budget{Trials: 2}, 1)
	if err != nil {
		log.Fatal(err)
	}
	m := r.Best.Map()
	for _, k := range []string{
		"mapred_reduce_tasks", "io_sort_mb", "jvm_heap_mb",
		"map_output_compression", "split_size_mb", "map_slots_per_node",
	} {
		fmt.Printf("  %-26s %s\n", k, m[k])
	}
}
