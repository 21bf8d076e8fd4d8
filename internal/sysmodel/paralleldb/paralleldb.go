// Package paralleldb models a shared-nothing parallel database (the
// Vertica/DBMS-X class from Pavlo et al., SIGMOD 2009) executing the
// grep/aggregation/join benchmark trio. It is the well-engineered baseline
// Hadoop is compared against in experiment E4: columnar-ish compressed
// storage, indexes that let the selection task skip most data, co-partitioned
// joins, long-lived processes (no per-task startup), and pipelined operators.
//
// The parallel DB exposes only a tiny, already-sensible configuration space:
// the point of the comparison is stock-vs-stock, where Hadoop's defaults are
// poor and the parallel DB's are fine.
package paralleldb

import (
	"math"
	"math/rand"

	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
	"repro/internal/workload"
)

// Parameter names of the (small) parallel DB space.
const (
	ShareMemPercent = "shared_memory_percent"
	IndexScans      = "use_index_scans"
	CompressTables  = "compress_tables"
)

// Space returns the parallel DB's configuration space.
func Space() *tune.Space {
	return tune.NewSpace(
		tune.Float(ShareMemPercent, 10, 80, 60).
			WithDoc("fraction of RAM for the shared buffer/work area", 5),
		tune.Bool(IndexScans, true).
			WithDoc("use indexes for selective predicates", 6),
		tune.Bool(CompressTables, true).
			WithDoc("columnar compression", 5),
	)
}

// ParallelDB is a simulated shared-nothing database running one of the
// Pavlo tasks. It implements tune.FidelityTarget through the
// embedded cluster.Runs, and tune.SpecProvider.
type ParallelDB struct {
	*cluster.Runs
	cl  *cluster.Cluster
	job *workload.MRJob // reuse the MR job profile: same data, same task
	s   *tune.Space
}

// New returns a parallel DB executing the same logical task as job on cl.
// Fidelity is the input fraction, as for the MapReduce targets.
func New(cl *cluster.Cluster, job *workload.MRJob, seed int64) *ParallelDB {
	p := &ParallelDB{cl: cl, job: job, s: Space()}
	p.Runs = cluster.NewRuns(seed, 982451653, p.simulate)
	return p
}

// Name implements tune.Target.
func (p *ParallelDB) Name() string { return "paralleldb/" + p.job.Name }

// Space implements tune.Target.
func (p *ParallelDB) Space() *tune.Space { return p.s }

// Specs implements tune.SpecProvider.
func (p *ParallelDB) Specs() map[string]float64 { return p.cl.Specs() }

// simulate executes the task once, reading fraction fidelity of its input,
// under cfg drawing noise from rng.
func (p *ParallelDB) simulate(rng *rand.Rand, fidelity float64, cfg tune.Config) tune.Result {
	cl := p.cl
	node := cl.MinNode()
	share := cl.EffectiveShare(rng)
	job := p.job.Scaled(fidelity)

	useIndex := cfg.Bool(IndexScans)
	compress := cfg.Bool(CompressTables)

	perNodeMB := job.InputMB / float64(len(cl.Nodes))
	sizeFactor := 1.0
	cpuFactor := 1.0
	if compress {
		sizeFactor = 0.40 // columnar compression beats row codecs
		cpuFactor = 1.10
	}

	// Scan volume: the selection task reads less via the clustered index,
	// though predicate evaluation still touches a sizable fraction (Pavlo's
	// selection task used an index on pageRank but scanned broadly).
	scanMB := perNodeMB * sizeFactor
	if useIndex && job.MapSelectivity < 0.01 {
		scanMB = perNodeMB * sizeFactor * 0.25
	}
	diskMBps := node.DiskMBps * share
	cpu := perNodeMB * job.MapCPUPerMB * 0.6 * cpuFactor / node.ClockGHz / float64(node.Cores)
	io := scanMB / diskMBps

	// Exchange phase (repartition for joins/aggregation): co-partitioning
	// avoids it for the join task's dominant input.
	exchangeMB := perNodeMB * job.MapSelectivity * sizeFactor * 0.5
	net := exchangeMB / (node.NetMBps * share)

	// Aggregation/merge compute.
	post := perNodeMB * job.MapSelectivity * job.ReduceCPUPerMB * 0.6 * cpuFactor /
		node.ClockGHz / float64(node.Cores)

	elapsed := math.Max(cpu+post, io) + net + 2.0 /* plan, dispatch, collect */
	elapsed *= math.Exp(rng.NormFloat64() * 0.03)

	return tune.Result{
		Time: elapsed,
		Cost: cl.DollarCost(elapsed),
		Metrics: map[string]float64{
			"scan_mb_per_node": scanMB,
			"exchange_mb":      exchangeMB * float64(len(cl.Nodes)),
			"cpu_s":            cpu + post,
			"io_s":             io,
		},
	}
}

// Interface conformance checks.
var (
	_ tune.Target         = (*ParallelDB)(nil)
	_ tune.SpecProvider   = (*ParallelDB)(nil)
	_ tune.FidelityTarget = (*ParallelDB)(nil)
)
