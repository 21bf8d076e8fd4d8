package costmodel

import (
	"math"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/tune"
	"repro/internal/workload"
)

// Starfish is the analytical MapReduce what-if engine: given a job profile
// (data-flow statistics that are configuration-independent) and a cluster
// description, it predicts phase times for any configuration with closed
// formulas, then searches the model — not the cluster — for the best
// configuration. Deliberate simplifications versus the simulator: it assumes
// a homogeneous cluster (the first node's spec), perfect waves with no
// stragglers or speculative re-execution, and idealized shuffle overlap.
// Those assumptions are exactly the weaknesses Table 1 lists for cost
// modeling, and the heterogeneity experiment exposes them.
type Starfish struct {
	// Seed drives the model search.
	Seed int64
}

// starfishSearchBudget is the number of model evaluations Starfish searches.
const starfishSearchBudget = 3000

// NewStarfish returns a Starfish tuner.
func NewStarfish(seed int64) *Starfish { return &Starfish{Seed: seed} }

// Name implements tune.Tuner.
func (t *Starfish) Name() string { return "costmodel/starfish" }

// Predict estimates the job runtime under cfg analytically.
func Predict(job *workload.MRJob, cl *cluster.Cluster, cfg tune.Config) float64 {
	node := cl.Nodes[0]
	nNodes := float64(len(cl.Nodes))
	clock := node.ClockGHz

	reduceTasks := float64(cfg.Int(mapreduce.ReduceTasks))
	sortMB := cfg.Float(mapreduce.IOSortMB)
	spillPct := cfg.Float(mapreduce.SpillPercent)
	sortFactor := math.Max(2, float64(cfg.Int(mapreduce.SortFactor)))
	mapCodec := cfg.Str(mapreduce.MapCompression)
	combiner := cfg.Bool(mapreduce.Combiner)
	mapSlots := float64(cfg.Int(mapreduce.MapSlots))
	redSlots := float64(cfg.Int(mapreduce.RedSlots))
	heap := cfg.Float(mapreduce.JVMHeapMB)
	jvmReuse := cfg.Bool(mapreduce.JVMReuse)
	splitMB := cfg.Float(mapreduce.SplitMB)

	// Infeasible regions the model knows about.
	if sortMB > 0.7*heap || heap*(mapSlots+redSlots) > node.RAMMB*0.9 {
		return math.Inf(1)
	}

	codecRatio, codecCPU := 1.0, 0.0
	switch mapCodec {
	case "snappy":
		codecRatio, codecCPU = 0.50, 0.004
	case "gzip":
		codecRatio, codecCPU = 0.35, 0.018
	}
	combFactor, combCPU := 1.0, 0.0
	if combiner && job.CombinerGain > 0 {
		combFactor = 1 - job.CombinerGain
		combCPU = 0.004
	}

	mapTasks := math.Max(1, math.Ceil(job.InputMB/splitMB))
	cpuShare := math.Min(1, float64(node.Cores)/mapSlots)
	diskPerSlot := node.DiskMBps / mapSlots
	jvmStart := 1.2
	if jvmReuse {
		jvmStart = 0.15
	}

	inPerMap := job.InputMB / mapTasks
	outPerMap := inPerMap * job.MapSelectivity
	numSpills := math.Max(1, math.Ceil(outPerMap/(sortMB*spillPct)))
	mergePasses := 0.0
	if numSpills > 1 {
		mergePasses = math.Ceil(math.Log(numSpills) / math.Log(sortFactor))
	}
	spillMB := outPerMap * combFactor * codecRatio * (1 + 2*mergePasses)
	mapTask := jvmStart + inPerMap/diskPerSlot +
		inPerMap*job.MapCPUPerMB/(clock*cpuShare) +
		outPerMap*(combCPU+codecCPU)/(clock*cpuShare) +
		outPerMap*0.002*mergePasses/(clock*cpuShare) +
		spillMB/diskPerSlot
	mapWaves := math.Ceil(mapTasks / (nNodes * mapSlots))
	mapPhase := mapTask * mapWaves

	shuffleMB := job.InputMB * job.MapSelectivity * combFactor * codecRatio
	shuffleBW := math.Min(cl.BisectionMBps, math.Min(reduceTasks, nNodes*redSlots)*node.NetMBps)
	shufflePhase := shuffleMB / math.Max(shuffleBW, 1) * 0.5 // idealized overlap

	redCPUShare := math.Min(1, float64(node.Cores)/redSlots)
	diskPerRed := node.DiskMBps / redSlots
	totalReduceIn := job.InputMB * job.MapSelectivity * combFactor
	inPerRed := totalReduceIn / reduceTasks
	// The model knows about average skew amplification but not the tail.
	skewAmp := 1 + job.SkewTheta
	extraMerge := 0.0
	if mapTasks > sortFactor {
		extraMerge = math.Ceil(math.Log(mapTasks)/math.Log(sortFactor)) - 1
	}
	out := inPerRed * job.ReduceSelectivity
	redTask := jvmStart + inPerRed*codecRatio*2*extraMerge/diskPerRed +
		inPerRed*job.ReduceCPUPerMB/(clock*redCPUShare) +
		out*3/diskPerRed + out*2/(node.NetMBps/redSlots)
	redWaves := math.Ceil(reduceTasks / (nNodes * redSlots))
	redPhase := redTask * redWaves * skewAmp

	return mapPhase + shufflePhase + redPhase + 4
}
