// spark-adaptive demonstrates the sixth category on a drifting stream: the
// batch volume grows over time, so any static configuration decays. Online
// controllers (Gounaris-style partition adaptation, COLT) retune the live
// knobs between micro-batches.
package main

import (
	"fmt"

	"repro/internal/mathx/xrand"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/spark"
	"repro/internal/tune"
	"repro/internal/tuners/adaptive"
	"repro/internal/tuners/rulebased"
	"repro/internal/workload"
)

func main() {
	const batches, interval = 30, 10.0
	seed := int64(5)
	job := workload.StreamingDrift(1536, batches, interval, 0.08)
	cl := cluster.Commodity(16)

	fresh := func() *spark.Spark { return spark.New(cl, job, seed) }

	report := func(label string, res tune.Result) {
		fmt.Printf("%-34s mean %5.1fs  p95 %5.1fs  misses %2.0f/%d\n",
			label,
			res.Metrics["mean_batch_latency_s"],
			res.Metrics["p95_batch_latency_s"],
			res.Metrics["deadline_misses"], batches)
	}

	fmt.Printf("streaming aggregation: %d batches, volume growing 8%%/batch, %gs deadline\n\n", batches, interval)

	target := fresh()
	report("static default", target.Run(target.Space().Default()))

	target = fresh()
	rules := rulebased.SparkRules().Apply(target.Space(), target.Specs(), target.WorkloadFeatures())
	report("static rules", target.Run(rules))

	target = fresh()
	report("adaptive partitions (from rules)",
		target.RunAdaptive(rules, adaptive.NewPartitionController()))

	target = fresh()
	colt := adaptive.NewCOLT(seed)
	ctl := colt.Controller(target.Space(), xrand.New(seed), batches)
	report("adaptive COLT (from rules)", target.RunAdaptive(rules, ctl))

	target = fresh()
	ctl2 := colt.Controller(target.Space(), xrand.New(seed+1), batches)
	res := target.RunAdaptive(target.Space().Default(), ctl2)
	report("adaptive COLT (from default)", res)
	if res.Metrics["deadline_misses"] > 0 {
		fmt.Println("\nnote: online tuning cannot resize executors mid-stream — the paper's")
		fmt.Println("      point that adaptive approaches cannot fix deployment-level mistakes.")
	}
}
