// cloud-cost demonstrates the paper's cloud open-challenge: joint cluster
// provisioning and parameter tuning under a deadline, priced per node-hour.
// For each candidate cluster size the job is tuned briefly, then the
// cheapest size meeting the deadline wins.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/workload"
)

func main() {
	const deadline = 600.0 // seconds
	job := workload.TeraSort(30)
	seed := int64(3)
	ctx := context.Background()

	fmt.Printf("terasort 30 GB, deadline %.0fs, $0.40 per node-hour\n\n", deadline)
	fmt.Printf("%6s %10s %10s %12s %s\n", "nodes", "untuned", "tuned", "cost/run", "verdict")

	bestCost, bestNodes := -1.0, 0
	for _, n := range []int{4, 8, 16, 32} {
		cl := cluster.Commodity(n)
		target := mapreduce.New(cl, job, seed+int64(n))
		untuned := target.Run(target.Space().Default()).Time

		it := experiment.NewITuned(seed + int64(n))
		r, err := repro.Tune(ctx, target, it, tune.Budget{Trials: 15}, 1)
		if err != nil {
			log.Fatal(err)
		}
		tuned := r.BestResult.Time
		cost := cl.DollarCost(tuned)
		verdict := "ok"
		if tuned > deadline {
			verdict = "misses deadline"
		} else if bestCost < 0 || cost < bestCost {
			bestCost, bestNodes = cost, n
		}
		fmt.Printf("%6d %9.0fs %9.0fs %11.3f$ %s\n", n, untuned, tuned, cost, verdict)
	}
	if bestNodes > 0 {
		fmt.Printf("\nprovision %d nodes: cheapest configuration meeting the deadline ($%.3f/run)\n",
			bestNodes, bestCost)
	}
	// The same decision can be made against a multi-tenant cluster:
	noisy := cluster.Commodity(bestNodes).MultiTenant(0.3, 0.2)
	target := mapreduce.New(noisy, job, seed+100)
	it := experiment.NewITuned(seed + 100)
	r, err := repro.Tune(ctx, target, it, tune.Budget{Trials: 15}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same size with 30%% tenant load: %.0fs/run ($%.3f) — interference priced in\n",
		r.BestResult.Time, noisy.DollarCost(r.BestResult.Time))
	_ = repro.Systems
}
