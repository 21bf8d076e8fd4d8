// Package rulebased implements the first category of the survey: tuning by
// encoded expert experience. It provides
//
//   - best-practice rulebooks for the DBMS, Hadoop, and Spark simulators
//     (the "set the buffer pool to 25% of RAM" class of advice),
//   - a SPEX-style constraint system (Xu et al., SOSP 2013) that infers
//     validity constraints over parameters and detects/repairs error-prone
//     configurations before they reach the system, and
//   - a Tianyin-style configuration navigator (Xu et al., ESEC/FSE 2015)
//     that ranks parameters by declared impact and walks users through only
//     the few that matter.
//
// Rule-based tuning needs no runs and no models — its strength — but it
// encodes static judgement, so it leaves workload-specific performance on
// the table; the Table-1 experiment quantifies exactly that.
package rulebased

import (
	"fmt"

	"repro/internal/tune"
)

// Rule sets one parameter from deployment specs and workload features.
type Rule struct {
	// Param is the parameter this rule sets.
	Param string
	// Reason documents the expert advice the rule encodes.
	Reason string
	// Value computes the native value from specs and workload features
	// (either may be nil when the target cannot provide them).
	Value func(specs, features map[string]float64) float64
}

// Rulebook is an ordered list of rules for one system.
type Rulebook struct {
	System string
	Rules  []Rule
}

// Apply returns the target-default configuration with every applicable rule
// applied. Rules naming parameters absent from the space are skipped, so a
// rulebook survives space evolution.
func (rb *Rulebook) Apply(space *tune.Space, specs, features map[string]float64) tune.Config {
	cfg := space.Default()
	for _, r := range rb.Rules {
		if _, ok := space.Param(r.Param); !ok {
			continue
		}
		cfg = cfg.WithNative(r.Param, r.Value(specs, features))
	}
	return cfg
}

// Tuner applies a rulebook to a target. It implements tune.BatchTuner; with a
// nonzero budget it spends one trial verifying the recommendation (and falls
// back to the default configuration if the recommendation fails outright).
type Tuner struct {
	Book *Rulebook
}

// NewTuner returns a rule-based tuner over book.
func NewTuner(book *Rulebook) *Tuner { return &Tuner{Book: book} }

// Name implements tune.Tuner.
func (t *Tuner) Name() string { return "rules/" + t.Book.System }

// clampMin returns v, at least lo.
func clampMin(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

// DBMSRules returns the classic DBA advice for the DBMS simulator.
func DBMSRules() *Rulebook {
	return &Rulebook{System: "dbms", Rules: []Rule{
		{
			Param:  "buffer_pool_mb",
			Reason: "give the buffer pool 25% of RAM (PostgreSQL wiki guidance)",
			Value:  func(s, _ map[string]float64) float64 { return 0.25 * s["ram_mb"] },
		},
		{
			Param:  "work_mem_mb",
			Reason: "size work_mem so peak concurrent sorts fit in another 25% of RAM",
			Value: func(s, f map[string]float64) float64 {
				conc := clampMin(f["clients"], 4)
				return clampMin(0.25*s["ram_mb"]/(conc*2), 4)
			},
		},
		{
			Param:  "max_parallel_workers",
			Reason: "allow parallel workers up to the core count",
			Value:  func(s, _ map[string]float64) float64 { return s["cores"] },
		},
		{
			Param:  "effective_io_concurrency",
			Reason: "raise I/O queue depth on capable storage",
			Value:  func(_, _ map[string]float64) float64 { return 16 },
		},
		{
			Param:  "checkpoint_interval_s",
			Reason: "space checkpoints out to damp full-page-write amplification",
			Value:  func(_, _ map[string]float64) float64 { return 900 },
		},
		{
			Param:  "wal_buffer_mb",
			Reason: "16 MB WAL buffer suffices for group commit",
			Value:  func(_, _ map[string]float64) float64 { return 16 },
		},
		{
			Param:  "max_connections",
			Reason: "cap connections near offered concurrency",
			Value: func(_, f map[string]float64) float64 {
				return clampMin(2*f["clients"], 32)
			},
		},
		{
			Param:  "random_page_cost",
			Reason: "lower random_page_cost when random I/O is fast",
			Value:  func(_, _ map[string]float64) float64 { return 2.5 },
		},
		{
			Param:  "stats_target",
			Reason: "richer optimizer statistics for analytical mixes",
			Value: func(_, f map[string]float64) float64 {
				if f["scan_frac"]+f["join_frac"] > 0.4 {
					return 400
				}
				return 100
			},
		},
	}}
}

// HadoopRules returns the Hadoop best practices Pavlo-era studies applied:
// parallel reducers, a larger sort buffer inside a larger heap, compression,
// and slot counts matched to cores.
func HadoopRules() *Rulebook {
	return &Rulebook{System: "hadoop", Rules: []Rule{
		{
			Param:  "mapred_reduce_tasks",
			Reason: "0.95 × reduce slots in the cluster (Hadoop tuning guide)",
			Value: func(s, _ map[string]float64) float64 {
				return clampMin(0.95*s["nodes"]*s["cores"]/2, 1)
			},
		},
		{
			Param:  "io_sort_mb",
			Reason: "sort buffer ~40% of task heap",
			Value:  func(_, _ map[string]float64) float64 { return 300 },
		},
		{
			Param:  "jvm_heap_mb",
			Reason: "grow task heap so the sort buffer fits comfortably",
			Value:  func(_, _ map[string]float64) float64 { return 1024 },
		},
		{
			Param:  "io_sort_factor",
			Reason: "merge wide to avoid extra passes",
			Value:  func(_, _ map[string]float64) float64 { return 64 },
		},
		{
			Param:  "map_output_compression",
			Reason: "snappy on map output: cheap CPU for large shuffle savings",
			Value:  func(_, _ map[string]float64) float64 { return 1 }, // choice index: snappy
		},
		{
			Param:  "use_combiner",
			Reason: "enable the combiner when the job aggregates",
			Value: func(_, f map[string]float64) float64 {
				if f["combiner_use"] > 0.1 {
					return 1
				}
				return 0
			},
		},
		{
			Param:  "map_slots_per_node",
			Reason: "one map slot per core, minus one for the daemons",
			Value:  func(s, _ map[string]float64) float64 { return clampMin(s["cores"]-1, 1) },
		},
		{
			Param:  "reduce_slots_per_node",
			Reason: "half the cores as reduce slots",
			Value:  func(s, _ map[string]float64) float64 { return clampMin(s["cores"]/2, 1) },
		},
		{
			Param:  "jvm_reuse",
			Reason: "reuse JVMs to amortize startup",
			Value:  func(_, _ map[string]float64) float64 { return 1 },
		},
		{
			Param:  "split_size_mb",
			Reason: "128 MB splits balance startup cost against waves",
			Value:  func(_, _ map[string]float64) float64 { return 128 },
		},
		{
			Param:  "reduce_slowstart",
			Reason: "start reducers after most maps finish on a dedicated cluster",
			Value:  func(_, _ map[string]float64) float64 { return 0.6 },
		},
	}}
}

// SparkRules returns the Spark tuning-guide advice.
func SparkRules() *Rulebook {
	return &Rulebook{System: "spark", Rules: []Rule{
		{
			Param:  "spark_num_executors",
			Reason: "fill the cluster: one executor per 4–5 cores per node",
			Value: func(s, _ map[string]float64) float64 {
				perNode := clampMin(s["cores"]/4, 1)
				return s["nodes"] * perNode
			},
		},
		{
			Param:  "spark_executor_cores",
			Reason: "4–5 cores per executor avoids HDFS client contention",
			Value:  func(s, _ map[string]float64) float64 { return clampMin(minf(4, s["cores"]), 1) },
		},
		{
			Param:  "spark_executor_memory_mb",
			Reason: "split node RAM across colocated executors, ~10% headroom",
			Value: func(s, _ map[string]float64) float64 {
				perNode := clampMin(s["cores"]/4, 1)
				return 0.85 * s["ram_mb"] / perNode
			},
		},
		{
			Param:  "spark_serializer",
			Reason: "always use Kryo (Spark tuning guide's first advice)",
			Value:  func(_, _ map[string]float64) float64 { return 1 }, // kryo
		},
		{
			Param:  "spark_sql_shuffle_partitions",
			Reason: "2–3 tasks per available core",
			Value: func(s, _ map[string]float64) float64 {
				return clampMin(2.5*s["nodes"]*s["cores"], 8)
			},
		},
		{
			Param:  "spark_memory_fraction",
			Reason: "leave the default unified fraction alone",
			Value:  func(_, _ map[string]float64) float64 { return 0.6 },
		},
		{
			Param:  "spark_rdd_compress",
			Reason: "compress cached RDDs for iterative jobs with big working sets",
			Value: func(_, f map[string]float64) float64 {
				if f["iterations"] > 0 && f["cache_gb"] > 1 {
					return 1
				}
				return 0
			},
		},
		{
			Param:  "spark_storage_level",
			Reason: "spill cached partitions to disk rather than recompute",
			Value: func(_, f map[string]float64) float64 {
				if f["iterations"] > 0 {
					return 1 // memory_and_disk
				}
				return 0
			},
		},
		{
			Param:  "spark_speculation",
			Reason: "speculate on multi-tenant or skewed clusters",
			Value:  func(_, _ map[string]float64) float64 { return 1 },
		},
	}}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// BookFor returns the rulebook for a target name's system, or an error.
func BookFor(targetName string) (*Rulebook, error) {
	switch system, _ := tune.SplitTargetName(targetName); system {
	case "dbms":
		return DBMSRules(), nil
	case "hadoop":
		return HadoopRules(), nil
	case "spark":
		return SparkRules(), nil
	}
	return nil, fmt.Errorf("rulebased: no rulebook for target %q", targetName)
}
