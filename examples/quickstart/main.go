// Quickstart: tune a simulated DBMS running a TPC-H-like mix with iTuned in
// under thirty lines of code.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
	"repro/internal/tune"
)

func main() {
	target, err := repro.NewTarget("dbms", "tpch", 42)
	if err != nil {
		log.Fatal(err)
	}
	before := target.Run(target.Space().Default())
	fmt.Printf("default configuration: %.0fs\n", before.Time)

	tuner, err := repro.NewTuner("ituned", repro.TunerOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	result, err := repro.Tune(context.Background(), target, tuner, tune.Budget{Trials: 25}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after %d experiments: %.0fs (%.1fx faster)\n",
		len(result.Trials), result.BestResult.Time, before.Time/result.BestResult.Time)
	fmt.Println("best configuration:", result.Best)
}
