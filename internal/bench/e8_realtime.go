package bench

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

// Realtime probes the paper's third open challenge (§2.5): real-time
// analytics, where the objective is batch latency against an arrival
// interval rather than batch throughput. Static configurations (default and
// rule-based) are compared against online adaptation on a streaming
// micro-batch job; the scoreboard is p95 latency and the fraction of batches
// that miss the arrival deadline (falling behind the stream).
func Realtime(o Options) (*Table, error) {
	t := &Table{
		Title:   "E8 (§2.5-3): streaming micro-batch latency, static vs adaptive",
		Columns: []string{"configuration", "mean batch", "p95 batch", "deadline misses", "total"},
	}
	batches := 40
	if o.Fast {
		batches = 12
	}
	interval := 10.0
	// The stream drifts: batch volume grows 6% per batch (~10× over 40
	// batches), the workload-shift setting that motivates online tuning.
	job := workload.StreamingDrift(o.scaleGB(2, 0.5)*1024, batches, interval, 0.06)

	// A drifting stream is not a registered workload: each row builds its
	// 16-node Spark deployment by hand.
	measure := func(label string, run func(target *spark.Spark) tune.Result) {
		target := spark.New(cluster.Commodity(16), job, o.Seed+91)
		res := run(target)
		mean := res.Metrics["mean_batch_latency_s"]
		if mean == 0 {
			mean = res.Time / float64(batches)
		}
		lat := res.Metrics["p95_batch_latency_s"]
		misses := int(res.Metrics["deadline_misses"])
		t.AddRow(label, fmtSeconds(mean), fmtSeconds(lat),
			fmt.Sprintf("%d/%d", misses, batches), fmtSeconds(res.Time))
	}

	measure("static default", func(target *spark.Spark) tune.Result {
		return target.Run(target.Space().Default())
	})
	rulesCfg := func(target *spark.Spark) tune.Config {
		return rulebased.SparkRules().Apply(target.Space(), target.Specs(), target.WorkloadFeatures())
	}
	measure("static rules", func(target *spark.Spark) tune.Result {
		return target.Run(rulesCfg(target))
	})
	// Executor sizing cannot change mid-stream, so online adaptation starts
	// from the static rules deployment and retunes the runtime knobs.
	measure("adaptive partitions (Gounaris)", func(target *spark.Spark) tune.Result {
		return target.RunAdaptive(rulesCfg(target), adaptive.NewPartitionController())
	})
	measure("adaptive COLT (from rules)", func(target *spark.Spark) tune.Result {
		ctl := &adaptiveStart{inner: adaptive.NewCOLT(o.Seed + 92), start: rulesCfg(target)}
		return target.RunAdaptive(ctl.start, ctl)
	})
	// The ad-hoc case: nobody tuned this stream. Online adaptation is the
	// only option (executor sizing is fixed, but dynamic allocation and
	// partitioning are live knobs).
	measure("adaptive COLT (from default)", func(target *spark.Spark) tune.Result {
		def := target.Space().Default()
		ctl := &adaptiveStart{inner: adaptive.NewCOLT(o.Seed + 93), start: def}
		return target.RunAdaptive(def, ctl)
	})

	t.Note("%d batches of %.0f MB arriving every %s; misses = batches slower than the interval",
		batches, o.scaleGB(2, 0.5)*1024, fmtSeconds(interval))
	t.Note("adaptive rows start from the rules deployment: executor sizing is fixed mid-stream")
	return t, nil
}

// adaptiveStart wraps COLT's single-knob probing for a streaming run that
// begins at an informed static configuration.
type adaptiveStart struct {
	inner *adaptive.COLT
	start tune.Config
	ctl   tune.EpochController
}

func (a *adaptiveStart) Epoch(i int, current tune.Config, prev map[string]float64) tune.Config {
	if a.ctl == nil {
		a.ctl = a.inner.Controller(a.start.Space(), xrand.New(a.inner.Seed), 1000)
	}
	return a.ctl.Epoch(i, current, prev)
}
