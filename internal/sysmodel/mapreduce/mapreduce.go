// Package mapreduce simulates a Hadoop MapReduce cluster executing one job:
// map tasks scheduled in waves over per-node slots, sort-buffer spills and
// multi-pass merges, the shuffle over bisection bandwidth with slowstart
// overlap, skewed reduce partitions, replicated output writes, JVM startup,
// stragglers, and speculative execution. Defaults mirror stock Hadoop
// (a single reduce task, 100 MB sort buffer, no compression), which is why
// untuned Hadoop loses to a parallel database by the 3.1–6.5× the paper
// cites — and why tuning closes most of the gap.
package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
	"repro/internal/workload"
)

// Parameter names of the Hadoop configuration space.
const (
	ReduceTasks    = "mapred_reduce_tasks"
	IOSortMB       = "io_sort_mb"
	SpillPercent   = "io_sort_spill_percent"
	SortFactor     = "io_sort_factor"
	MapCompression = "map_output_compression"
	OutCompression = "output_compression"
	Combiner       = "use_combiner"
	Slowstart      = "reduce_slowstart"
	MapSlots       = "map_slots_per_node"
	RedSlots       = "reduce_slots_per_node"
	JVMHeapMB      = "jvm_heap_mb"
	JVMReuse       = "jvm_reuse"
	SplitMB        = "split_size_mb"
	Speculative    = "speculative_execution"
)

// Space returns the Hadoop configuration space for the given cluster.
func Space(c *cluster.Cluster) *tune.Space {
	node := c.Nodes[0]
	return tune.NewSpace(
		tune.LogInt(ReduceTasks, 1, 512, 1).
			WithDoc("number of reduce tasks; the stock default of 1 serializes the reduce phase", 10),
		tune.LogFloat(IOSortMB, 10, 1024, 100).WithUnit("MB").
			WithDoc("map-side sort buffer; small buffers spill repeatedly", 8),
		tune.Float(SpillPercent, 0.2, 0.95, 0.8).
			WithDoc("buffer fill fraction that triggers a spill", 4),
		tune.LogInt(SortFactor, 2, 128, 10).
			WithDoc("streams merged at once; low values force extra merge passes", 6),
		tune.Choice(MapCompression, []string{"none", "snappy", "gzip"}, "none").
			WithDoc("map output codec; trades CPU for spill+shuffle bytes", 7),
		tune.Bool(OutCompression, false).
			WithDoc("compress final output before replication", 3),
		tune.Bool(Combiner, false).
			WithDoc("run a combiner on map output when the job is reducible", 8),
		tune.Float(Slowstart, 0.05, 1.0, 0.05).
			WithDoc("map completion fraction before reducers start fetching", 3),
		tune.Int(MapSlots, 1, 2*node.Cores, 2).
			WithDoc("map slots per node; beyond cores, tasks contend for CPU", 7),
		tune.Int(RedSlots, 1, 2*node.Cores, 2).
			WithDoc("reduce slots per node", 5),
		tune.LogFloat(JVMHeapMB, 200, 4096, 200).WithUnit("MB").
			WithDoc("task JVM heap; the sort buffer must fit in it", 6),
		tune.Bool(JVMReuse, false).
			WithDoc("reuse JVMs across tasks, amortizing startup", 4),
		tune.LogFloat(SplitMB, 16, 1024, 64).WithUnit("MB").
			WithDoc("input split size; controls map task count", 6),
		tune.Bool(Speculative, true).
			WithDoc("re-execute straggler tasks speculatively", 4),
	)
}

// Hadoop is a simulated MapReduce cluster bound to one job. It implements
// tune.FidelityTarget through the embedded cluster.Runs, and
// tune.SpecProvider and tune.Describer.
type Hadoop struct {
	*cluster.Runs
	cl  *cluster.Cluster
	job *workload.MRJob
	s   *tune.Space
	// NoiseStd is the log-normal run-to-run noise (default 0.04).
	NoiseStd float64
}

// New returns a simulated Hadoop deployment running job on cl. Fidelity is
// the input fraction: map-wave counts, spill pressure, and shuffle volume
// all shrink with the input, so cost scales ≈ linearly; reduce-task sizing
// tuned at very low fidelity can mislead (fewer, smaller partitions — see
// DESIGN.md §11).
func New(cl *cluster.Cluster, job *workload.MRJob, seed int64) *Hadoop {
	h := &Hadoop{cl: cl, job: job, s: Space(cl), NoiseStd: 0.04}
	h.Runs = cluster.NewRuns(seed, 1442695040888963407, h.simulate)
	return h
}

// Name implements tune.Target.
func (h *Hadoop) Name() string { return "hadoop/" + h.job.Name }

// Space implements tune.Target.
func (h *Hadoop) Space() *tune.Space { return h.s }

// Specs implements tune.SpecProvider.
func (h *Hadoop) Specs() map[string]float64 {
	s := h.cl.Specs()
	s["heap_mb"] = 200
	return s
}

// Job exposes the data-flow profile, playing the role of a Starfish job
// profile for white-box cost models.
func (h *Hadoop) Job() *workload.MRJob { return h.job }

// Cluster exposes the deployment for cost models and rules.
func (h *Hadoop) Cluster() *cluster.Cluster { return h.cl }

// WorkloadFeatures implements tune.Describer.
func (h *Hadoop) WorkloadFeatures() map[string]float64 {
	return map[string]float64{
		"input_gb":     h.job.InputMB / 1024,
		"map_sel":      h.job.MapSelectivity,
		"reduce_sel":   h.job.ReduceSelectivity,
		"map_cpu":      h.job.MapCPUPerMB,
		"reduce_cpu":   h.job.ReduceCPUPerMB,
		"combiner_use": h.job.CombinerGain,
		"skew":         h.job.SkewTheta,
	}
}

// codec returns (size ratio, CPU seconds per raw MB) for a codec name.
func codec(name string) (ratio, cpu float64) {
	switch name {
	case "snappy":
		return 0.50, 0.004
	case "gzip":
		return 0.35, 0.018
	default:
		return 1.0, 0
	}
}

// simulate executes the job once, reading fraction fidelity of its input,
// under cfg drawing noise from rng.
func (h *Hadoop) simulate(rng *rand.Rand, fidelity float64, cfg tune.Config) tune.Result {
	job := h.job.Scaled(fidelity)
	cl := h.cl
	node := cl.MinNode() // wave pacing is set by the weakest machine
	share := cl.EffectiveShare(rng)
	m := make(map[string]float64, 24)

	reduceTasks := cfg.Int(ReduceTasks)
	sortMB := cfg.Float(IOSortMB)
	spillPct := cfg.Float(SpillPercent)
	sortFactor := float64(cfg.Int(SortFactor))
	mapCodec := cfg.Str(MapCompression)
	outCompress := cfg.Bool(OutCompression)
	combiner := cfg.Bool(Combiner)
	slowstart := cfg.Float(Slowstart)
	mapSlots := cfg.Int(MapSlots)
	redSlots := cfg.Int(RedSlots)
	heap := cfg.Float(JVMHeapMB)
	jvmReuse := cfg.Bool(JVMReuse)
	splitMB := cfg.Float(SplitMB)
	speculative := cfg.Bool(Speculative)

	// Sort buffer must fit the heap; Hadoop tasks OOM otherwise.
	if sortMB > 0.7*heap {
		t := 120.0 * math.Exp(rng.NormFloat64()*0.1)
		return tune.Result{
			Time:       t,
			Failed:     true,
			FailReason: fmt.Sprintf("map task OOM: io.sort.mb %.0f MB exceeds 70%% of %.0f MB heap", sortMB, heap),
			Metrics:    map[string]float64{"task_oom": 1},
		}
	}
	// Heap memory per node must fit RAM.
	memDemand := heap * float64(mapSlots+redSlots)
	if memDemand > node.RAMMB*0.9 {
		t := 180.0 * math.Exp(rng.NormFloat64()*0.1)
		return tune.Result{
			Time:       t,
			Failed:     true,
			FailReason: fmt.Sprintf("node memory exhausted: %d slots × %.0f MB heap > %.0f MB RAM", mapSlots+redSlots, heap, node.RAMMB),
			Metrics:    map[string]float64{"node_oom": 1},
		}
	}

	nNodes := len(cl.Nodes)
	mapTasks := int(math.Ceil(job.InputMB / splitMB))
	if mapTasks < 1 {
		mapTasks = 1
	}
	if mapTasks > 20000 {
		mapTasks = 20000
	}

	codecRatio, codecCPU := codec(mapCodec)

	// Per-task CPU share: slots beyond cores contend.
	cpuShare := 1.0
	if mapSlots > node.Cores {
		cpuShare = float64(node.Cores) / float64(mapSlots)
	}
	diskPerSlot := node.DiskMBps * share / float64(mapSlots)
	clock := node.ClockGHz

	jvmStart := 1.2
	if jvmReuse {
		jvmStart = 0.15
	}

	// --- map tasks -----------------------------------------------------------
	combFactor := 1.0
	combCPU := 0.0
	if combiner && job.CombinerGain > 0 {
		combFactor = 1 - job.CombinerGain
		combCPU = 0.004 // extra pass over map output per MB
	}
	outPerMap := (job.InputMB / float64(mapTasks)) * job.MapSelectivity
	spillBuffer := sortMB * spillPct
	numSpills := math.Max(1, math.Ceil(outPerMap/spillBuffer))
	mergePasses := 0.0
	if numSpills > 1 {
		mergePasses = math.Ceil(math.Log(numSpills) / math.Log(math.Max(2, sortFactor)))
	}
	// Spill writes the (combined, compressed) output once, plus one
	// read+write per merge pass.
	spillMBPerMap := outPerMap * combFactor * codecRatio * (1 + 2*mergePasses)

	mapDur := make([]float64, mapTasks)
	inPerMap := job.InputMB / float64(mapTasks)
	stragglers := 0
	for i := range mapDur {
		read := inPerMap / diskPerSlot
		cpu := inPerMap*job.MapCPUPerMB/(clock*cpuShare) +
			outPerMap*(combCPU+codecCPU)/(clock*cpuShare) +
			outPerMap*0.002*mergePasses/(clock*cpuShare)
		spillIO := spillMBPerMap / diskPerSlot
		base := jvmStart + read + cpu + spillIO
		f := math.Exp(rng.NormFloat64() * 0.12)
		if rng.Float64() < 0.03 {
			f *= 2 + 2*rng.Float64() // hardware straggler
			stragglers++
		}
		mapDur[i] = base * f
	}
	if speculative {
		// A speculative copy caps stragglers near 1.4× the median.
		med := cluster.SortedAt(slices.Clone(mapDur), mapTasks/2)
		for i, d := range mapDur {
			if d > 1.6*med {
				backup := med*1.3 + jvmStart
				if backup < d {
					mapDur[i] = backup
				}
			}
		}
	}
	mapCompletions := make([]float64, mapTasks)
	mapEnd := cluster.ListSchedule(mapDur, nNodes*mapSlots, 0, mapCompletions)

	// --- shuffle ---------------------------------------------------------------
	shuffleMB := job.InputMB * job.MapSelectivity * combFactor * codecRatio
	shuffleBW := math.Min(cl.BisectionMBps*share,
		float64(min(reduceTasks, nNodes*redSlots))*node.NetMBps*share)
	if shuffleBW < 1 {
		shuffleBW = 1
	}
	shuffleDur := shuffleMB / shuffleBW
	// Reducers begin fetching once slowstart of maps finished; only the
	// first reduce wave overlaps.
	shuffleStart := cluster.SortedAt(mapCompletions, int(slowstart*float64(mapTasks-1)))
	firstWaveFrac := math.Min(1, float64(nNodes*redSlots)/float64(reduceTasks))
	overlapWindow := math.Max(0, mapEnd-shuffleStart)
	overlapped := math.Min(shuffleDur*firstWaveFrac, overlapWindow)
	shuffleEnd := mapEnd + (shuffleDur - overlapped)

	// --- reduce ------------------------------------------------------------------
	redCPUShare := 1.0
	if redSlots > node.Cores {
		redCPUShare = float64(node.Cores) / float64(redSlots)
	}
	diskPerRedSlot := node.DiskMBps * share / float64(redSlots)
	shares := workload.ZipfShares(reduceTasks, job.SkewTheta)
	outRatio := 1.0
	outCPU := 0.0
	if outCompress {
		outRatio, outCPU = codec("gzip")
	}
	segments := float64(mapTasks)
	extraMerge := 0.0
	if segments > sortFactor {
		extraMerge = math.Ceil(math.Log(segments)/math.Log(math.Max(2, sortFactor))) - 1
	}
	totalReduceIn := job.InputMB * job.MapSelectivity * combFactor // decompressed
	redDur := make([]float64, reduceTasks)
	for i := range redDur {
		in := totalReduceIn * shares[i]
		mergeIO := in * codecRatio * 2 * extraMerge / diskPerRedSlot
		cpu := in*job.ReduceCPUPerMB/(clock*redCPUShare) + in*codecCPU/(clock*redCPUShare)
		out := in * job.ReduceSelectivity * outRatio
		// 3-way replication: one local write, two remote over the NIC.
		writeIO := out*3/diskPerRedSlot + out*2/(node.NetMBps*share/float64(redSlots))
		cpu += in * job.ReduceSelectivity * outCPU / (clock * redCPUShare)
		base := jvmStart + mergeIO + cpu + writeIO
		f := math.Exp(rng.NormFloat64() * 0.12)
		if rng.Float64() < 0.03 {
			f *= 2 + 2*rng.Float64()
			stragglers++
		}
		redDur[i] = base * f
	}
	if speculative {
		med := cluster.SortedAt(slices.Clone(redDur), reduceTasks/2)
		for i, d := range redDur {
			if d > 1.6*med && d > 0 {
				backup := med*1.3 + jvmStart
				if backup < d {
					redDur[i] = backup
				}
			}
		}
	}
	redEnd := cluster.ListSchedule(redDur, nNodes*redSlots, shuffleEnd, nil)

	elapsed := redEnd + 4.0 // job setup/teardown
	elapsed *= math.Exp(rng.NormFloat64() * h.NoiseStd)

	m["map_tasks"] = float64(mapTasks)
	m["reduce_tasks"] = float64(reduceTasks)
	m["map_waves"] = math.Ceil(float64(mapTasks) / float64(nNodes*mapSlots))
	m["reduce_waves"] = math.Ceil(float64(reduceTasks) / float64(nNodes*redSlots))
	m["map_phase_s"] = mapEnd
	m["shuffle_mb"] = shuffleMB
	m["shuffle_s"] = shuffleEnd - mapEnd
	m["reduce_phase_s"] = redEnd - shuffleEnd
	m["spilled_mb"] = spillMBPerMap * float64(mapTasks)
	m["spills_per_map"] = numSpills
	m["merge_passes"] = mergePasses
	m["reduce_extra_merge"] = extraMerge
	m["stragglers"] = float64(stragglers)
	m["output_mb"] = totalReduceIn * job.ReduceSelectivity * outRatio
	m["jvm_start_s"] = jvmStart * float64(mapTasks+reduceTasks)
	m["skew_max_share"] = shares[0] * float64(reduceTasks)

	return tune.Result{Time: elapsed, Cost: cl.DollarCost(elapsed), Metrics: m}
}

// Interface conformance checks.
var (
	_ tune.Target         = (*Hadoop)(nil)
	_ tune.SpecProvider   = (*Hadoop)(nil)
	_ tune.Describer      = (*Hadoop)(nil)
	_ tune.FidelityTarget = (*Hadoop)(nil)
)
