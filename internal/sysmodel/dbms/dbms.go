// Package dbms simulates a single-node relational database's performance
// response to its configuration: buffer-pool caching, working memory and
// spills, parallel query execution, checkpointing and WAL, lock contention,
// planner behaviour under misleading cost parameters, compression, and
// memory over-subscription. The simulator is the tuning substrate standing
// in for PostgreSQL/MySQL/DB2 (see DESIGN.md §5): tuners observe only
// (configuration → runtime, metrics), and the model reproduces the
// qualitative phenomena — concave caching curves, spill cliffs, interaction
// effects, crash regions — that the surveyed tuning approaches exploit.
package dbms

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
	"repro/internal/workload"
)

// Parameter names of the DBMS configuration space.
const (
	BufferPoolMB     = "buffer_pool_mb"
	WorkMemMB        = "work_mem_mb"
	MaxWorkers       = "max_parallel_workers"
	MaxConnections   = "max_connections"
	CheckpointSec    = "checkpoint_interval_s"
	WALBufferMB      = "wal_buffer_mb"
	IOConcurrency    = "effective_io_concurrency"
	RandomPageCost   = "random_page_cost"
	Compression      = "compression"
	CachePolicy      = "cache_policy"
	DeadlockTimeout  = "deadlock_timeout_ms"
	LogLevel         = "log_level"
	Autovacuum       = "autovacuum"
	StatsTarget      = "stats_target"
	HashMemMultiple  = "hash_mem_multiplier"
	MaintenanceMemMB = "maintenance_work_mem_mb"
)

// Space returns the DBMS configuration space for a node with the given RAM.
// Impact annotations follow common DBA guidance and drive the
// configuration-navigation (Xu et al.) reproduction.
func Space(ramMB float64) *tune.Space {
	return tune.NewSpace(
		// The buffer pool resizes online (DB2 semantics): growth is free,
		// shrinking pays a partial cold-cache penalty in RunAdaptive.
		tune.LogFloat(BufferPoolMB, 64, 0.95*ramMB, 128).WithUnit("MB").
			WithDoc("shared buffer pool size; the single most important memory knob", 10),
		tune.LogFloat(WorkMemMB, 1, 2048, 4).WithUnit("MB").
			WithDoc("per-operator sort/hash memory; too low spills, too high swaps", 9),
		tune.Int(MaxWorkers, 1, 32, 2).
			WithDoc("parallel workers per query", 7),
		tune.LogInt(MaxConnections, 8, 512, 100).WithRestart().
			WithDoc("connection limit; caps effective concurrency", 5),
		tune.LogFloat(CheckpointSec, 30, 3600, 300).WithUnit("s").
			WithDoc("checkpoint interval; short intervals amplify WAL full-page writes", 6),
		tune.LogFloat(WALBufferMB, 1, 256, 8).WithUnit("MB").
			WithDoc("WAL buffer; small buffers stall group commit", 4),
		tune.LogInt(IOConcurrency, 1, 64, 2).
			WithDoc("concurrent I/O requests issued for random reads", 5),
		tune.Float(RandomPageCost, 1, 10, 4).
			WithDoc("planner's random/sequential page cost ratio; misleads plan choice when wrong", 8),
		tune.Bool(Compression, false).WithRestart().
			WithDoc("page compression: halves I/O volume, adds CPU per page", 4),
		tune.Choice(CachePolicy, []string{"lru", "clock", "2q"}, "lru").WithRestart().
			WithDoc("buffer replacement policy; 2Q resists scan flooding", 3),
		tune.LogFloat(DeadlockTimeout, 10, 10000, 1000).WithUnit("ms").
			WithDoc("deadlock detection wait; low detects early but false-aborts", 3),
		tune.Choice(LogLevel, []string{"minimal", "normal", "verbose"}, "normal").
			WithDoc("logging verbosity; verbose costs CPU and I/O", 1),
		tune.Bool(Autovacuum, true).
			WithDoc("background garbage collection; off bloats tables under writes", 4),
		tune.LogInt(StatsTarget, 10, 1000, 100).
			WithDoc("optimizer statistics detail; low targets misestimate selectivity", 5),
		tune.Float(HashMemMultiple, 0.5, 4, 1).
			WithDoc("hash tables may use this multiple of work_mem", 3),
		tune.LogFloat(MaintenanceMemMB, 16, 2048, 64).WithUnit("MB").
			WithDoc("vacuum/index-build memory", 2),
	)
}

// DBMS is a simulated database bound to a node and a workload. It implements
// tune.ConcurrentFidelityTarget through the embedded cluster.Runs, and
// tune.SpecProvider, tune.AdaptiveTarget and tune.Describer.
type DBMS struct {
	*cluster.Runs
	node cluster.Node
	wl   *workload.DBWorkload
	// Tenant models optional multi-tenant interference (nil = dedicated).
	Tenant *cluster.Cluster
	space  *tune.Space
	// NoiseStd is the log-normal run-to-run noise (default 0.03).
	NoiseStd float64
}

// New returns a simulated DBMS on the given node running wl. The seed fixes
// the noise stream. Fidelity samples the workload to fraction f of its
// operations (a sampled scale factor): cost scales ≈ linearly with f while
// the cache, planner, and memory responses — which depend on configuration,
// not operation count — are unchanged, so low fidelity ranks configurations
// faithfully here (see DESIGN.md §11).
func New(node cluster.Node, wl *workload.DBWorkload, seed int64) *DBMS {
	d := &DBMS{node: node, wl: wl, space: Space(node.RAMMB), NoiseStd: 0.03}
	d.Runs = cluster.NewRuns(seed, 2654435761, d.simulate)
	return d
}

// Name implements tune.Target.
func (d *DBMS) Name() string { return "dbms/" + d.wl.Name }

// Space implements tune.Target.
func (d *DBMS) Space() *tune.Space { return d.space }

// Specs implements tune.SpecProvider.
func (d *DBMS) Specs() map[string]float64 {
	return map[string]float64{
		"nodes":     1,
		"cores":     float64(d.node.Cores),
		"clock_ghz": d.node.ClockGHz,
		"ram_mb":    d.node.RAMMB,
		"disk_mbps": d.node.DiskMBps,
		"net_mbps":  d.node.NetMBps,
	}
}

// WorkloadFeatures implements tune.Describer.
func (d *DBMS) WorkloadFeatures() map[string]float64 {
	var scanW, joinW, sortW, pointW, updateW, tot float64
	var dataMB float64
	for _, t := range d.wl.Tables {
		dataMB += t.SizeMB
	}
	for _, q := range d.wl.Queries {
		tot += q.Weight
		switch q.Kind {
		case workload.RangeScan, workload.Aggregate:
			scanW += q.Weight
		case workload.Join:
			joinW += q.Weight
		case workload.SortQuery:
			sortW += q.Weight
		case workload.PointRead:
			pointW += q.Weight
		case workload.Update:
			updateW += q.Weight
		}
	}
	if tot == 0 {
		tot = 1
	}
	return map[string]float64{
		"data_gb":     dataMB / 1024,
		"clients":     float64(d.wl.Clients),
		"scan_frac":   scanW / tot,
		"join_frac":   joinW / tot,
		"sort_frac":   sortW / tot,
		"point_frac":  pointW / tot,
		"update_frac": updateW / tot,
		"ops_k":       float64(d.wl.Ops) / 1000,
	}
}

// Epochs implements tune.AdaptiveTarget: a run divides into 20 windows,
// modeling a long-running workload with natural reconfiguration points.
func (d *DBMS) Epochs() int { return 20 }

// RunAdaptive implements tune.AdaptiveTarget: the workload executes in
// epochs and ctrl may change the configuration between them. Changing
// restart-only parameters (buffer pool, connections) imposes a warm-up
// penalty on the following epoch.
func (d *DBMS) RunAdaptive(start tune.Config, ctrl tune.EpochController) tune.Result {
	epochs := d.Epochs()
	frac := 1.0 / float64(epochs)
	total := d.RunEpochs(start, ctrl, epochs, func(rng *rand.Rand, e int, cur, next tune.Config) (tune.Config, tune.Result) {
		res := d.simulate(rng, frac, next)
		if e > 0 && restartPenalty(cur, next) {
			res.Time *= 1.15 // partially cold cache after a disruptive change
		}
		return next, res
	})
	total.Metrics["epochs"] = float64(epochs)
	return total
}

// restartPenalty reports whether the a→b transition disrupts warm state:
// shrinking the buffer pool discards cached pages, and replacement-policy or
// compression changes invalidate the cache outright. Growing the pool is an
// online operation (DB2's STMM does it live) and costs nothing here.
func restartPenalty(a, b tune.Config) bool {
	return b.Float(BufferPoolMB) < a.Float(BufferPoolMB)*0.99 ||
		a.Str(CachePolicy) != b.Str(CachePolicy) ||
		a.Bool(Compression) != b.Bool(Compression) ||
		a.Int(MaxConnections) != b.Int(MaxConnections)
}

// simulate executes fraction opsFraction of the workload under cfg.
func (d *DBMS) simulate(rng *rand.Rand, opsFraction float64, cfg tune.Config) tune.Result {
	node := d.node
	wl := d.wl
	m := make(map[string]float64, 24)

	buffer := cfg.Float(BufferPoolMB)
	workMem := cfg.Float(WorkMemMB)
	workers := cfg.Int(MaxWorkers)
	maxConn := cfg.Int(MaxConnections)
	ckptSec := cfg.Float(CheckpointSec)
	walBuf := cfg.Float(WALBufferMB)
	ioc := float64(cfg.Int(IOConcurrency))
	rpc := cfg.Float(RandomPageCost)
	compress := cfg.Bool(Compression)
	policy := cfg.Str(CachePolicy)
	dlTimeout := cfg.Float(DeadlockTimeout) / 1000 // seconds
	logLevel := cfg.Str(LogLevel)
	autovac := cfg.Bool(Autovacuum)
	statsTarget := float64(cfg.Int(StatsTarget))
	hashMul := cfg.Float(HashMemMultiple)

	if workers > node.Cores {
		workers = node.Cores
	}

	// --- storage & caching -------------------------------------------------
	// Effective cache size under the replacement policy. 2Q resists scan
	// flooding so it behaves like a slightly larger cache when the mix
	// contains scans; clock is slightly worse than LRU.
	effBuffer := buffer
	scanFrac := d.WorkloadFeatures()["scan_frac"]
	switch policy {
	case "clock":
		effBuffer *= 0.96
	case "2q":
		effBuffer *= 1 + 0.10*scanFrac
	}

	// Compression shrinks on-disk and in-cache footprints but costs CPU.
	sizeFactor := 1.0
	cpuPageFactor := 1.0
	if compress {
		sizeFactor = 0.55
		cpuPageFactor = 1.35
	}
	// Bloat without autovacuum under writes.
	bloat := 1.0
	if !autovac && wl.WriteFraction() > 0.05 {
		bloat = 1.30
	}

	// Distribute cache across tables proportionally to access weight.
	accessW := make(map[string]float64)
	var totalAccessW float64
	for _, q := range wl.Queries {
		accessW[q.Table] += q.Weight
		if q.Build != "" {
			accessW[q.Build] += q.Weight
		}
		totalAccessW += q.Weight
	}
	hit := make(map[string]float64)
	for _, t := range wl.Tables {
		share := effBuffer
		if totalAccessW > 0 {
			share = effBuffer * accessW[t.Name] / totalAccessW
		}
		size := t.SizeMB * sizeFactor * bloat
		frac := share / size
		if frac > 1 {
			frac = 1
		}
		// Skewed access concentrates hits: a Che-style concave curve with
		// exponent shrinking as skew grows.
		exp := 1 - t.ZipfTheta
		if exp < 0.25 {
			exp = 0.25
		}
		hit[t.Name] = math.Pow(frac, exp)
	}

	// Disk bandwidths, derated by tenant load when configured.
	share := 1.0
	if d.Tenant != nil {
		share = d.Tenant.EffectiveShare(rng)
	}
	seqMBps := node.DiskMBps * share
	// Random I/O throughput improves with queue depth up to a device limit.
	randMBps := node.RandMBps() * math.Sqrt(math.Min(ioc, 32)) * share
	if randMBps > seqMBps {
		randMBps = seqMBps
	}
	realRPCRatio := seqMBps / randMBps // true cost ratio the planner should know

	// --- per-query work ----------------------------------------------------
	type work struct {
		cpu      float64 // seconds
		seqIO    float64 // MB
		randIO   float64 // MB
		tempIO   float64 // MB written+read to temp
		memMB    float64 // working memory demand
		wal      float64 // MB of WAL
		parallel bool
		write    bool
	}
	const scanCPUPerMB = 0.012 // s/MB at 1 GHz
	clock := node.ClockGHz

	// Selectivity misestimation shrinks with stats detail.
	estErr := func() float64 {
		sigma := 0.9 / math.Sqrt(statsTarget/10)
		return math.Exp(rng.NormFloat64() * sigma)
	}

	queryWork := func(q workload.Query) work {
		var w work
		switch q.Kind {
		case workload.PointRead:
			t := wl.Table(q.Table)
			miss := (1 - hit[t.Name])
			w.randIO = miss * 0.03 // ~4 pages
			w.cpu = 0.00002 / clock
		case workload.Update:
			t := wl.Table(q.Table)
			miss := (1 - hit[t.Name])
			w.randIO = miss * 0.03
			w.cpu = 0.00005 / clock
			w.wal = 0.02
			w.write = true
		case workload.RangeScan:
			t := wl.Table(q.Table)
			size := t.SizeMB * sizeFactor * bloat
			selEst := q.Selectivity * estErr()
			costSeq := size * 1.0
			costIdx := size * selEst * rpc * 1.2
			if costIdx < costSeq { // planner picks index scan
				actual := size * q.Selectivity
				w.randIO = actual * (1 - hit[t.Name])
				w.cpu = actual * scanCPUPerMB * cpuPageFactor / clock
				if selEst < q.Selectivity*0.5 || rpc < realRPCRatio*0.3 {
					// Badly misled: index scan over too many rows — random
					// I/O dominates where a sequential scan would have won.
					w.randIO *= 1.6
				}
			} else {
				w.seqIO = size * (1 - hit[t.Name])
				w.cpu = size * scanCPUPerMB * cpuPageFactor / clock
			}
			w.parallel = true
		case workload.SortQuery:
			mb := q.SortMB * sizeFactor
			w.cpu = mb * 0.02 / clock
			if mb > workMem {
				fanout := math.Max(4, math.Min(64, workMem))
				passes := math.Ceil(math.Log(mb/workMem) / math.Log(fanout))
				if passes < 1 {
					passes = 1
				}
				w.tempIO = 2 * mb * passes
				w.cpu *= 1 + 0.3*passes
			}
			w.memMB = math.Min(workMem, mb)
			w.parallel = true
		case workload.Join:
			build := wl.Table(q.Build)
			probe := wl.Table(q.Table)
			bMB := build.SizeMB * sizeFactor * bloat
			pMB := probe.SizeMB * sizeFactor * bloat
			w.seqIO = bMB*(1-hit[build.Name]) + pMB*(1-hit[probe.Name])
			w.cpu = (bMB*0.02 + pMB*0.015) * cpuPageFactor / clock
			hashMem := workMem * hashMul
			if bMB > hashMem {
				// Partitioned hash join: spill both sides once per extra
				// round of partitioning.
				rounds := math.Ceil(math.Log(bMB/hashMem) / math.Log(8))
				if rounds < 1 {
					rounds = 1
				}
				w.tempIO = 2 * (bMB + pMB) * rounds * 0.8
				w.cpu *= 1 + 0.2*rounds
			}
			w.memMB = math.Min(hashMem, bMB)
			w.parallel = true
		case workload.Aggregate:
			t := wl.Table(q.Table)
			size := t.SizeMB * sizeFactor * bloat
			w.seqIO = size * (1 - hit[t.Name])
			w.cpu = size * 0.022 * cpuPageFactor / clock
			groups := q.GroupsMB
			if groups > workMem*hashMul {
				w.tempIO = 2 * q.SortMB * sizeFactor * 0.5
				w.cpu *= 1.25
			}
			w.memMB = math.Min(workMem*hashMul, groups)
			w.parallel = true
		}
		return w
	}

	// --- aggregate over the mix ---------------------------------------------
	ops := float64(wl.Ops) * opsFraction
	totW := wl.TotalWeight()
	var cpuS, seqIO, randIO, tempIO, walMB float64
	var olapMem float64 // average per-OLAP-query memory demand
	var olapWeight float64
	var spills float64
	for _, q := range wl.Queries {
		n := ops * q.Weight / totW
		w := queryWork(q)
		coord := 0.0
		wmem := w.memMB
		if w.parallel && workers > 1 {
			// Parallel workers add coordination CPU and multiply memory
			// demand; the latency benefit enters through effective core
			// utilization below.
			coord = 0.004 * float64(workers)
			wmem *= float64(workers)
		}
		cpuS += n * (w.cpu + coord)
		seqIO += n * w.seqIO
		randIO += n * w.randIO
		tempIO += n * w.tempIO
		walMB += n * w.wal
		if w.tempIO > 0 {
			spills += n
		}
		if w.parallel {
			olapMem += q.Weight * wmem
			olapWeight += q.Weight
		}
	}
	if olapWeight > 0 {
		olapMem /= olapWeight
	}

	// --- memory accounting ---------------------------------------------------
	activeConns := math.Min(float64(wl.Clients), float64(maxConn))
	concOLAP := math.Min(activeConns, float64(node.Cores))
	totalMem := buffer + walBuf + 4*float64(maxConn) + olapMem*concOLAP + 256 /*base*/
	oversub := totalMem / (node.RAMMB * 0.97)
	swapFactor := 1.0
	failed := false
	failReason := ""
	switch {
	case oversub > 1.45:
		failed = true
		failReason = fmt.Sprintf("out of memory: demand %.0f MB exceeds %.0f MB RAM", totalMem, node.RAMMB)
		swapFactor = 6
	case oversub > 1:
		swapFactor = 1 + 9*(oversub-1)
	}

	// --- memory & concurrency-derived capacity --------------------------------
	// Effective cores: bounded by the machine, by tenant share, and by how
	// much concurrency the workload plus parallel workers can offer. This is
	// where max_parallel_workers pays off for low-concurrency analytics.
	cores := float64(node.Cores) * share
	offered := activeConns * math.Max(1, float64(workers))
	effCores := math.Min(cores, offered)
	if effCores < 1 {
		effCores = 1
	}

	// --- checkpoint & WAL ----------------------------------------------------
	// First-pass elapsed estimate without checkpoint overhead:
	cpuTime := cpuS / effCores
	ioTime := seqIO/seqMBps + randIO/randMBps + tempIO/(seqMBps*0.8)
	elapsed0 := math.Max(cpuTime, ioTime) + 0.25*math.Min(cpuTime, ioTime)
	if elapsed0 <= 0 {
		elapsed0 = 0.001
	}
	dirtyMBps := 0.0
	if elapsed0 > 0 {
		dirtyMBps = (walMB * 1.5) / elapsed0
	}
	// Short checkpoint intervals amplify WAL (full-page writes); very long
	// intervals accumulate large bursts that stall foreground I/O.
	fpwAmp := 1 + math.Min(4, 180/ckptSec)
	ckptIOMBps := dirtyMBps * fpwAmp
	burstStall := math.Min(0.25, (dirtyMBps*ckptSec)/(seqMBps*ckptSec*0.5+1)*2)
	// WAL buffer stalls: if the buffer holds less than ~50 ms of WAL
	// throughput, group commit degrades.
	walRate := walMB / elapsed0 * fpwAmp
	commitStall := 0.0
	if wl.WriteFraction() > 0 && walBuf < walRate*0.25 {
		commitStall = 0.0004 * ops * wl.WriteFraction()
	}

	// --- lock contention (OLTP) ----------------------------------------------
	lockWait := 0.0
	deadlocks := 0.0
	if wl.WriteFraction() > 0 && wl.HotRows > 0 {
		conc := math.Min(activeConns, 64)
		conflict := wl.WriteFraction() * conc / wl.HotRows * 12
		if conflict > 0.9 {
			conflict = 0.9
		}
		avgHold := 0.002
		waitPerTxn := conflict * avgHold * conc / 2
		lockWait = waitPerTxn * ops * wl.WriteFraction()
		dlRate := conflict * conflict * 0.05
		deadlocks = dlRate * ops * wl.WriteFraction()
		// Deadlock detection: each deadlock wastes the timeout plus a retry.
		lockWait += deadlocks * (dlTimeout + 0.005)
		// Overly eager timeouts abort transactions that were merely waiting.
		if dlTimeout < waitPerTxn*2 {
			falseAborts := ops * wl.WriteFraction() * conflict * 0.2
			lockWait += falseAborts * 0.004
			deadlocks += falseAborts
		}
	}

	// --- logging overhead ------------------------------------------------------
	logFactor := 1.0
	switch logLevel {
	case "verbose":
		logFactor = 1.06
	case "minimal":
		logFactor = 0.995
	}
	// Autovacuum background I/O.
	vacIO := 0.0
	if autovac {
		vacIO = 0.02 * seqMBps * elapsed0 / seqMBps // 2% of elapsed in I/O terms
	}

	// --- total ------------------------------------------------------------------
	ioTime = (seqIO+vacIO)/seqMBps + randIO/randMBps + tempIO/(seqMBps*0.8) + (ckptIOMBps*elapsed0)/seqMBps
	cpuTime = cpuS * logFactor / effCores
	elapsed := math.Max(cpuTime, ioTime) + 0.25*math.Min(cpuTime, ioTime)
	elapsed *= 1 + burstStall
	elapsed += commitStall + lockWait/math.Max(1, math.Min(activeConns, 32))
	// Connection-limit queueing: offered clients beyond max_connections wait.
	if float64(wl.Clients) > float64(maxConn) {
		elapsed *= 1 + 0.3*math.Min(3, (float64(wl.Clients)-float64(maxConn))/float64(maxConn))
	}
	elapsed *= swapFactor
	elapsed *= math.Exp(rng.NormFloat64() * d.NoiseStd)
	if elapsed < 0.001 {
		elapsed = 0.001
	}

	// --- metrics ------------------------------------------------------------------
	// Sum in sorted-name order: float addition is not associative, and map
	// iteration order would otherwise leak into the metric's last ulp,
	// breaking byte-identical event streams across runs.
	names := make([]string, 0, len(hit))
	for name := range hit {
		names = append(names, name)
	}
	sort.Strings(names)
	var hitAvg float64
	var nw float64
	for _, name := range names {
		w := accessW[name]
		hitAvg += hit[name] * w
		nw += w
	}
	if nw > 0 {
		hitAvg /= nw
	}
	m["epoch_time"] = elapsed
	m["buffer_hit_ratio"] = hitAvg
	m["cpu_seconds"] = cpuS * logFactor
	m["seq_read_mb"] = seqIO
	m["rand_read_mb"] = randIO
	m["temp_io_mb"] = tempIO
	m["spilled_queries"] = spills
	m["wal_mb"] = walMB * fpwAmp
	m["checkpoint_io_mbps"] = ckptIOMBps
	m["lock_wait_s"] = lockWait
	m["deadlocks"] = deadlocks
	m["mem_used_mb"] = totalMem
	m["mem_oversubscription"] = oversub
	m["swap_factor"] = swapFactor
	m["active_connections"] = activeConns
	m["io_time_s"] = ioTime
	m["cpu_time_s"] = cpuTime
	m["commit_stall_s"] = commitStall
	m["burst_stall_frac"] = burstStall
	m["ops"] = ops
	m["throughput_ops"] = ops / elapsed

	// Dollar cost prices the provisioned footprint the configuration claims
	// — memory actually allocated and connection slots actually offered — so
	// latency and cost pull in different directions (a huge buffer pool buys
	// speed but rents RAM) and multi-objective sessions have a real
	// trade-off to map. The charge is per billing quantum, NOT per elapsed
	// second: provisioned capacity bills whether the query ran fast or slow
	// (cloud instances round up to the hour). Multiplying by elapsed would
	// make cost a near-affine function of latency and collapse the Pareto
	// front to its fastest point.
	dollars := 0.05 + 0.03*totalMem/1024 + 0.0004*float64(maxConn)
	m["dollar_cost"] = dollars
	return tune.Result{Time: elapsed, Cost: dollars, Failed: failed, FailReason: failReason, Metrics: m}
}

// Interface conformance checks.
var (
	_ tune.Target                   = (*DBMS)(nil)
	_ tune.SpecProvider             = (*DBMS)(nil)
	_ tune.AdaptiveTarget           = (*DBMS)(nil)
	_ tune.Describer                = (*DBMS)(nil)
	_ tune.ConcurrentFidelityTarget = (*DBMS)(nil)
)
