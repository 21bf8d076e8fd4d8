// Package workload defines the synthetic workloads the simulated systems
// execute: DBMS query mixes (TPC-H-like analytics, OLTP transactions), the
// Pavlo-benchmark trio (grep, aggregation, join) for the Hadoop-vs-parallel-
// DB comparison, and the classic big-data jobs (WordCount, TeraSort,
// PageRank, K-Means, streaming micro-batches).
//
// Every workload is deterministic given its constructor arguments; data
// properties (sizes, selectivities, skew) are explicit fields so cost models
// can read them like a Starfish job profile would.
package workload

import (
	"math"
	"sync"
)

// ---------------------------------------------------------------------------
// DBMS workloads

// QueryKind enumerates the simulated DBMS query types.
type QueryKind int

const (
	// PointRead is an index point lookup.
	PointRead QueryKind = iota
	// Update is a read-modify-write of a single row.
	Update
	// RangeScan reads a fraction of a table, via index or sequential scan
	// as chosen by the simulated planner.
	RangeScan
	// SortQuery sorts an intermediate result (ORDER BY / merge-join input).
	SortQuery
	// Join is a hash join between a build and a probe table.
	Join
	// Aggregate is a scan with hash aggregation.
	Aggregate
)

// String returns the query kind name.
func (k QueryKind) String() string {
	switch k {
	case PointRead:
		return "point"
	case Update:
		return "update"
	case RangeScan:
		return "scan"
	case SortQuery:
		return "sort"
	case Join:
		return "join"
	case Aggregate:
		return "agg"
	}
	return "unknown"
}

// Table describes a simulated relation.
type Table struct {
	Name string
	// SizeMB is the on-disk (uncompressed) footprint.
	SizeMB float64
	// ZipfTheta controls access skew: 0 = uniform, →1 = heavily skewed.
	// Skewed access makes small buffer pools disproportionately effective.
	ZipfTheta float64
}

// Query is one template in a DBMS workload mix.
type Query struct {
	Kind QueryKind
	// Table is the accessed (probe, for joins) table name.
	Table string
	// Build is the build-side table for joins.
	Build string
	// Selectivity is the fraction of rows touched by RangeScan.
	Selectivity float64
	// SortMB is the intermediate data volume for SortQuery/Aggregate.
	SortMB float64
	// GroupsMB is the hash-aggregate state size for Aggregate.
	GroupsMB float64
	// Weight is the relative frequency of this template in the mix.
	Weight float64
}

// DBWorkload is a query mix executed by concurrent clients.
type DBWorkload struct {
	Name    string
	Tables  []Table
	Queries []Query
	// Clients is the offered concurrency.
	Clients int
	// Ops is the total number of query executions in one run.
	Ops int
	// HotRows approximates the size of the update hot set; smaller means
	// more lock contention.
	HotRows float64
}

// Table returns the named table; it panics on unknown names because
// workloads are static program data.
func (w *DBWorkload) Table(name string) Table {
	for _, t := range w.Tables {
		if t.Name == name {
			return t
		}
	}
	panic("workload: unknown table " + name)
}

// TotalWeight sums query weights.
func (w *DBWorkload) TotalWeight() float64 {
	var s float64
	for _, q := range w.Queries {
		s += q.Weight
	}
	return s
}

// WriteFraction returns the fraction of operations that write.
func (w *DBWorkload) WriteFraction() float64 {
	var wr, tot float64
	for _, q := range w.Queries {
		tot += q.Weight
		if q.Kind == Update {
			wr += q.Weight
		}
	}
	if tot == 0 {
		return 0
	}
	return wr / tot
}

// TPCHLike returns an analytical mix over a lineitem-like fact table and two
// dimensions at roughly the given scale in GB.
func TPCHLike(scaleGB float64) *DBWorkload {
	f := scaleGB * 1024
	return &DBWorkload{
		Name: "tpch",
		Tables: []Table{
			{Name: "lineitem", SizeMB: 0.70 * f, ZipfTheta: 0.2},
			{Name: "orders", SizeMB: 0.20 * f, ZipfTheta: 0.3},
			{Name: "customer", SizeMB: 0.10 * f, ZipfTheta: 0.5},
		},
		Queries: []Query{
			{Kind: RangeScan, Table: "lineitem", Selectivity: 0.02, Weight: 3},
			{Kind: RangeScan, Table: "lineitem", Selectivity: 0.30, Weight: 2},
			{Kind: Join, Table: "lineitem", Build: "orders", Weight: 2},
			{Kind: Join, Table: "orders", Build: "customer", Weight: 1},
			{Kind: SortQuery, Table: "lineitem", SortMB: 0.10 * f, Weight: 1},
			{Kind: Aggregate, Table: "lineitem", SortMB: 0.70 * f, GroupsMB: 64, Weight: 2},
		},
		Clients: 8,
		Ops:     40,
	}
}

// OLTP returns a transactional mix: point reads, updates, and short scans
// over a skewed working set.
func OLTP(clients int, scaleGB float64) *DBWorkload {
	f := scaleGB * 1024
	return &DBWorkload{
		Name: "oltp",
		Tables: []Table{
			{Name: "accounts", SizeMB: 0.8 * f, ZipfTheta: 0.8},
			{Name: "tellers", SizeMB: 0.2 * f, ZipfTheta: 0.6},
		},
		Queries: []Query{
			{Kind: PointRead, Table: "accounts", Weight: 5},
			{Kind: Update, Table: "accounts", Weight: 3},
			{Kind: PointRead, Table: "tellers", Weight: 1},
			{Kind: RangeScan, Table: "tellers", Selectivity: 0.002, Weight: 1},
		},
		Clients: clients,
		Ops:     20000,
		HotRows: 200,
	}
}

// MixedDB returns a hybrid mix (reporting queries over an OLTP store),
// useful as the "unseen workload" in transfer experiments.
func MixedDB(scaleGB float64) *DBWorkload {
	f := scaleGB * 1024
	return &DBWorkload{
		Name: "mixed",
		Tables: []Table{
			{Name: "events", SizeMB: 0.6 * f, ZipfTheta: 0.5},
			{Name: "users", SizeMB: 0.4 * f, ZipfTheta: 0.7},
		},
		Queries: []Query{
			{Kind: PointRead, Table: "users", Weight: 4},
			{Kind: Update, Table: "events", Weight: 2},
			{Kind: RangeScan, Table: "events", Selectivity: 0.05, Weight: 2},
			{Kind: Join, Table: "events", Build: "users", Weight: 1},
			{Kind: Aggregate, Table: "events", SortMB: 0.6 * f, GroupsMB: 32, Weight: 1},
		},
		Clients: 16,
		Ops:     2000,
		HotRows: 1000,
	}
}

// ---------------------------------------------------------------------------
// MapReduce jobs

// MRJob is a Starfish-style data-flow profile of a MapReduce job: everything
// a cost model needs to predict phase times analytically.
type MRJob struct {
	Name    string
	InputMB float64
	// MapSelectivity is map-output bytes / input bytes.
	MapSelectivity float64
	// ReduceSelectivity is final-output bytes / map-output bytes.
	ReduceSelectivity float64
	// MapCPUPerMB and ReduceCPUPerMB are CPU-seconds per MB at 1 GHz.
	MapCPUPerMB    float64
	ReduceCPUPerMB float64
	// CombinerGain is the fraction by which a combiner shrinks map output
	// (0 = combiner useless, 0.9 = shrinks to 10%).
	CombinerGain float64
	// SkewTheta controls reduce-partition skew (0 = uniform).
	SkewTheta float64
	// Compressibility is the size ratio achieved by compression (e.g. 0.4
	// means compressed data is 40% of raw).
	Compressibility float64
}

// Scaled returns the job reading fraction f of its input — the fidelity
// knob of the simulators that run an MRJob. At f = 1 it is j itself.
func (j *MRJob) Scaled(f float64) *MRJob {
	if f >= 1 {
		return j
	}
	c := *j
	c.InputMB *= f
	return &c
}

// ZipfShares returns n partition shares summing to 1 under Zipf skew theta
// (0 = uniform): how the simulators split a job's data by its SkewTheta.
// Share i is w_i / (w_1 + … + w_n) with w_i = 1/i^θ, summed from i = 1 up.
// The weights and their running sums come from a process-wide table per θ
// for n up to zipfTableCap, so a run divides n times instead of calling
// math.Pow n times; the bits are the formula's, since the table adds in the
// same order.
func ZipfShares(n int, theta float64) []float64 {
	return zipfTables.shares(n, theta)
}

// zipfTableCap is a table's length: a Spark stage has at most 4 096 tasks
// and a Hadoop job at most 512 reducers.
const zipfTableCap = 4096

// zipfTable holds w_i = 1/i^θ for i = 1…len and their running sums. A
// published table is never written again.
type zipfTable struct {
	weights, sums []float64
}

// newZipfTable returns theta's table with n entries.
func newZipfTable(theta float64, n int) *zipfTable {
	t := &zipfTable{make([]float64, n), make([]float64, n)}
	var h float64
	for i := 1; i <= n; i++ {
		t.weights[i-1] = 1 / math.Pow(float64(i), theta)
		h += t.weights[i-1]
		t.sums[i-1] = h
	}
	return t
}

// zipfRegistry is a set of tables, one per θ, each built at zipfTableCap
// entries when its θ is first used. θ is a job constant, so a process holds
// one or two tables per workload it runs.
type zipfRegistry struct {
	mu     sync.Mutex
	tables map[uint64]*zipfTable
}

var zipfTables zipfRegistry

// shares is ZipfShares over r's tables.
func (r *zipfRegistry) shares(n int, theta float64) []float64 {
	shares := make([]float64, n)
	if n == 0 {
		return shares
	}
	var t *zipfTable
	if n <= zipfTableCap {
		t = r.table(theta)
	} else {
		t = newZipfTable(theta, n)
	}
	h := t.sums[n-1]
	for i := range shares {
		shares[i] = t.weights[i] / h
	}
	return shares
}

// table returns theta's table, building it on first use.
func (r *zipfRegistry) table(theta float64) *zipfTable {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := math.Float64bits(theta)
	t := r.tables[key]
	if t == nil {
		t = newZipfTable(theta, zipfTableCap)
		if r.tables == nil {
			r.tables = map[uint64]*zipfTable{}
		}
		r.tables[key] = t
	}
	return t
}

// Grep is the Pavlo-benchmark selection task: scan-heavy, tiny output.
func Grep(gb float64) *MRJob {
	return &MRJob{
		Name: "grep", InputMB: gb * 1024,
		MapSelectivity: 0.001, ReduceSelectivity: 1.0,
		MapCPUPerMB: 0.010, ReduceCPUPerMB: 0.005,
		CombinerGain: 0, SkewTheta: 0, Compressibility: 0.45,
	}
}

// Aggregation is the Pavlo-benchmark aggregation task.
func Aggregation(gb float64) *MRJob {
	return &MRJob{
		Name: "aggregation", InputMB: gb * 1024,
		MapSelectivity: 0.25, ReduceSelectivity: 0.01,
		MapCPUPerMB: 0.020, ReduceCPUPerMB: 0.015,
		CombinerGain: 0.85, SkewTheta: 0.3, Compressibility: 0.40,
	}
}

// JoinMR is the Pavlo-benchmark repartition join.
func JoinMR(gb float64) *MRJob {
	return &MRJob{
		Name: "join", InputMB: gb * 1024,
		MapSelectivity: 1.05, ReduceSelectivity: 0.15,
		MapCPUPerMB: 0.025, ReduceCPUPerMB: 0.040,
		CombinerGain: 0, SkewTheta: 0.5, Compressibility: 0.40,
	}
}

// WordCount is the canonical reducible job.
func WordCount(gb float64) *MRJob {
	return &MRJob{
		Name: "wordcount", InputMB: gb * 1024,
		MapSelectivity: 1.4, ReduceSelectivity: 0.05,
		MapCPUPerMB: 0.035, ReduceCPUPerMB: 0.020,
		CombinerGain: 0.9, SkewTheta: 0.4, Compressibility: 0.35,
	}
}

// TeraSort shuffles its whole input.
func TeraSort(gb float64) *MRJob {
	return &MRJob{
		Name: "terasort", InputMB: gb * 1024,
		MapSelectivity: 1.0, ReduceSelectivity: 1.0,
		MapCPUPerMB: 0.012, ReduceCPUPerMB: 0.015,
		CombinerGain: 0, SkewTheta: 0.2, Compressibility: 0.45,
	}
}

// ---------------------------------------------------------------------------
// Spark jobs

// SparkJob describes a simulated Spark application as a sequence of stages.
type SparkJob struct {
	Name    string
	InputMB float64
	// Iterations > 0 marks an iterative job (PageRank, K-Means): the
	// per-iteration stages repeat and caching the working set pays off.
	Iterations int
	// CacheableMB is the dataset worth persisting across iterations.
	CacheableMB float64
	// ShuffleMB is the data shuffled per shuffle stage (per iteration for
	// iterative jobs).
	ShuffleMB float64
	// CPUPerMB is compute cost per MB at 1 GHz per stage pass.
	CPUPerMB float64
	// SkewTheta controls partition skew.
	SkewTheta float64
	// Streaming marks a micro-batch job: InputMB is per batch and
	// Batches batches arrive BatchIntervalS apart. DriftPerBatch grows the
	// batch volume over time (workload shift), the case for online
	// adaptation in real-time analytics.
	Streaming      bool
	Batches        int
	BatchIntervalS float64
	DriftPerBatch  float64
	// Compressibility as for MRJob.
	Compressibility float64
}

// Scaled returns the job processing fraction f of its input, with the
// cacheable and shuffled volumes scaled alike — Spark's fidelity knob. At
// f = 1 it is j itself.
func (j *SparkJob) Scaled(f float64) *SparkJob {
	if f >= 1 {
		return j
	}
	c := *j
	c.InputMB *= f
	c.CacheableMB *= f
	c.ShuffleMB *= f
	return &c
}

// WordCountSpark is the batch WordCount on Spark.
func WordCountSpark(gb float64) *SparkJob {
	return &SparkJob{
		Name: "wordcount", InputMB: gb * 1024,
		ShuffleMB: gb * 1024 * 0.3, CPUPerMB: 0.030,
		SkewTheta: 0.4, Compressibility: 0.35,
	}
}

// TeraSortSpark shuffles its whole input once.
func TeraSortSpark(gb float64) *SparkJob {
	return &SparkJob{
		Name: "terasort", InputMB: gb * 1024,
		ShuffleMB: gb * 1024, CPUPerMB: 0.012,
		SkewTheta: 0.2, Compressibility: 0.45,
	}
}

// PageRank is the iterative graph job: repeated joins over a cached edge
// list with heavy-hitter skew.
func PageRank(gb float64, iters int) *SparkJob {
	return &SparkJob{
		Name: "pagerank", InputMB: gb * 1024, Iterations: iters,
		CacheableMB: gb * 1024 * 1.2, ShuffleMB: gb * 1024 * 0.5,
		CPUPerMB: 0.025, SkewTheta: 0.7, Compressibility: 0.40,
	}
}

// KMeansSpark is the iterative ML job: big cached points, tiny shuffles.
func KMeansSpark(gb float64, iters int) *SparkJob {
	return &SparkJob{
		Name: "kmeans", InputMB: gb * 1024, Iterations: iters,
		CacheableMB: gb * 1024, ShuffleMB: 2,
		CPUPerMB: 0.060, SkewTheta: 0.1, Compressibility: 0.50,
	}
}

// StreamingAgg is a micro-batch aggregation: batches of mbPerBatch arriving
// every intervalS seconds. Latency per batch is the objective surface the
// real-time experiment explores.
func StreamingAgg(mbPerBatch float64, batches int, intervalS float64) *SparkJob {
	return &SparkJob{
		Name: "streaming", InputMB: mbPerBatch, Streaming: true,
		Batches: batches, BatchIntervalS: intervalS,
		ShuffleMB: mbPerBatch * 0.4, CPUPerMB: 0.040,
		SkewTheta: 0.3, Compressibility: 0.40,
	}
}

// StreamingDrift is StreamingAgg with the batch volume growing by drift per
// batch — the workload-shift scenario where a statically tuned configuration
// decays and online adaptation pays off.
func StreamingDrift(mbPerBatch float64, batches int, intervalS, drift float64) *SparkJob {
	j := StreamingAgg(mbPerBatch, batches, intervalS)
	j.DriftPerBatch = drift
	return j
}
