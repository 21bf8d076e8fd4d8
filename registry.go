package repro

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/sysmodel/paralleldb"
	"repro/internal/sysmodel/spark"
	"repro/internal/tune"
	"repro/internal/tuners/adaptive"
	"repro/internal/tuners/costmodel"
	"repro/internal/tuners/experiment"
	"repro/internal/tuners/ml"
	"repro/internal/tuners/rulebased"
	"repro/internal/tuners/simulation"
	"repro/internal/workload"
)

// TargetOptions controls target construction.
type TargetOptions struct {
	// ScaleGB is the input scale in GB (default: system-specific).
	ScaleGB float64 `json:"scale_gb,omitempty"`
	// Nodes is the cluster size for distributed systems (default 16).
	Nodes int `json:"nodes,omitempty"`
	// Heterogeneous selects a mixed node fleet.
	Heterogeneous bool `json:"heterogeneous,omitempty"`
	// TenantLoad adds multi-tenant background interference (0–0.9).
	TenantLoad float64 `json:"tenant_load,omitempty"`
	// FullSparkSpace exposes Spark's ~200-parameter surface.
	FullSparkSpace bool `json:"full_spark_space,omitempty"`
}

// validate rejects out-of-range options with descriptive errors. The
// negated comparisons also catch NaN.
func (o TargetOptions) validate() error {
	if !(o.ScaleGB >= 0) {
		return fmt.Errorf("repro: ScaleGB must be ≥ 0 GB (0 selects the system default), got %v", o.ScaleGB)
	}
	if o.Nodes < 0 {
		return fmt.Errorf("repro: Nodes must be ≥ 0 (0 selects the default of 16), got %d", o.Nodes)
	}
	if !(o.TenantLoad >= 0 && o.TenantLoad <= 0.9) {
		return fmt.Errorf("repro: TenantLoad must be within [0, 0.9] (fraction of each resource consumed by co-tenants), got %v", o.TenantLoad)
	}
	return nil
}

// TunerOptions controls tuner construction.
type TunerOptions struct {
	// Seed drives the tuner's randomness.
	Seed int64
	// Repo supplies past sessions to repository-based tuners (ottertune,
	// recommender), whose builders read TargetName's system out of it once,
	// when the tuner is built (tune.Snapshot); nil is allowed.
	Repo tune.Corpus
	// TargetName ("dbms/tpch") helps rule-based tuners pick a rulebook and
	// names the system whose sessions a repository-based tuner reads.
	TargetName string
	// Proxy is the scaled replica required by the "scaled-proxy" tuner.
	Proxy Target
}

// TargetFactory builds targets for one registered system.
type TargetFactory struct {
	// Workloads lists the workload names the system accepts. An empty
	// list declares an open-ended workload namespace: Spec validation
	// then defers workload checking to New.
	Workloads []string
	// New builds a target bound to the named workload, named
	// "system/workload": the repository, the warm start and the
	// repository-driven tuners all read the session's system from that
	// name. Options arrive pre-validated (see TargetOptions); unknown
	// workloads should return a descriptive error.
	New func(workload string, seed int64, opts TargetOptions) (Target, error)
}

// TunerFactory builds one registered tuning approach.
type TunerFactory struct {
	// Category is the survey category the approach belongs to.
	Category string
	// Doc is a one-line description.
	Doc string
	// New builds the tuner.
	New func(TunerOptions) (Tuner, error)
}

// The registries. Builtins are registered at init; RegisterTarget and
// RegisterTuner let external systems and algorithms plug in by name, after
// which the whole facade — NewTarget/NewTuner, Spec/Start, and the HTTP
// daemon — accepts them like builtins.
var registry = struct {
	sync.RWMutex
	targetOrder []string
	targets     map[string]TargetFactory
	tuners      map[string]TunerFactory
}{
	targets: map[string]TargetFactory{},
	tuners:  map[string]TunerFactory{},
}

// RegisterTarget makes a system constructible by name through NewTarget
// and Spec. It errors on an empty name, a nil factory, or a name already
// registered.
func RegisterTarget(system string, f TargetFactory) error {
	if system == "" || f.New == nil {
		return fmt.Errorf("repro: RegisterTarget requires a system name and a New func")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.targets[system]; dup {
		return fmt.Errorf("repro: target system %q already registered", system)
	}
	registry.targetOrder = append(registry.targetOrder, system)
	registry.targets[system] = f
	return nil
}

// RegisterTuner makes a tuning approach constructible by name through
// NewTuner and Spec. It errors on an empty name, a nil constructor, or a
// name already registered.
func RegisterTuner(name, category, doc string, build func(TunerOptions) (Tuner, error)) error {
	if name == "" || build == nil {
		return fmt.Errorf("repro: RegisterTuner requires a tuner name and a build func")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.tuners[name]; dup {
		return fmt.Errorf("repro: tuner %q already registered", name)
	}
	registry.tuners[name] = TunerFactory{Category: category, Doc: doc, New: build}
	return nil
}

// Systems lists the systems NewTarget accepts, builtins first in their
// canonical order, then custom registrations in registration order.
func Systems() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, len(registry.targetOrder))
	copy(out, registry.targetOrder)
	return out
}

// Workloads lists the workload names each system accepts.
func Workloads(system string) []string {
	registry.RLock()
	defer registry.RUnlock()
	f, ok := registry.targets[system]
	if !ok {
		return nil
	}
	out := make([]string, len(f.Workloads))
	copy(out, f.Workloads)
	return out
}

// NewTarget builds a simulated system bound to a named workload. It
// refuses a factory whose target is not named "system/workload".
func NewTarget(system, wl string, seed int64, opts ...TargetOptions) (Target, error) {
	var o TargetOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	registry.RLock()
	f, ok := registry.targets[system]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown system %q (have %s)", system, strings.Join(Systems(), ", "))
	}
	target, err := f.New(wl, seed, o)
	if err != nil {
		return nil, err
	}
	if want := system + "/" + wl; target.Name() != want {
		return nil, fmt.Errorf("repro: system %q built a target named %q, want %q", system, target.Name(), want)
	}
	return target, nil
}

// Tuners lists available tuner names with their survey category, sorted.
func Tuners() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.tuners))
	for n := range registry.tuners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TunerInfo returns the category and one-line description of a tuner.
func TunerInfo(name string) (category, doc string, ok bool) {
	registry.RLock()
	defer registry.RUnlock()
	f, ok := registry.tuners[name]
	return f.Category, f.Doc, ok
}

// NewTuner builds a tuner by name.
func NewTuner(name string, o TunerOptions) (Tuner, error) {
	registry.RLock()
	f, ok := registry.tuners[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown tuner %q (have %s)", name, strings.Join(Tuners(), ", "))
	}
	return f.New(o)
}

// —— builtin targets ——————————————————————————————————————————————————————

// buildCluster realizes the fleet options shared by every builtin system.
func buildCluster(o TargetOptions) *cluster.Cluster {
	nodes := o.Nodes
	if nodes <= 0 {
		nodes = 16
	}
	var cl *cluster.Cluster
	if o.Heterogeneous {
		cl = cluster.Heterogeneous(nodes)
	} else {
		cl = cluster.Commodity(nodes)
	}
	if o.TenantLoad > 0 {
		cl = cl.MultiTenant(o.TenantLoad, o.TenantLoad/2)
	}
	return cl
}

func scaleOr(o TargetOptions, def float64) float64 {
	if o.ScaleGB > 0 {
		return o.ScaleGB
	}
	return def
}

// builtinWorkload is one workload a builtin system accepts: its name and the
// constructor of the target that runs it, which is handed that name.
type builtinWorkload struct {
	name string
	new  func(wl string, seed int64, o TargetOptions) (Target, error)
}

// builtinFactory registers a builtin system's workloads in listing order:
// their names are the system's Workloads, and any other name is the one
// lookup-miss error.
func builtinFactory(system string, wls []builtinWorkload) TargetFactory {
	names := make([]string, len(wls))
	for i, w := range wls {
		names[i] = w.name
	}
	return TargetFactory{Workloads: names, New: func(wl string, seed int64, o TargetOptions) (Target, error) {
		for _, w := range wls {
			if w.name == wl {
				return w.new(wl, seed, o)
			}
		}
		return nil, fmt.Errorf("repro: unknown %s workload %q (have %s)", system, wl, strings.Join(names, ", "))
	}}
}

// newDBMS binds w to a stationary dbms target.
func newDBMS(w *workload.DBWorkload, seed int64, o TargetOptions) *dbms.DBMS {
	d := dbms.New(cluster.CommodityNode(), w, seed)
	if o.TenantLoad > 0 {
		d.Tenant = buildCluster(o)
	}
	return d
}

// onDBMS is the constructor of a stationary dbms workload whose scale
// defaults to def GB.
func onDBMS(def float64, w func(gb float64) *workload.DBWorkload) func(string, int64, TargetOptions) (Target, error) {
	return func(_ string, seed int64, o TargetOptions) (Target, error) {
		return newDBMS(w(scaleOr(o, def)), seed, o), nil
	}
}

// dbmsWorkloads ends with the time-varying workloads: every phase is an
// ordinary stationary dbms target (sharing one configuration space, since
// the system is the same) and the workload.Drift wrapper schedules trials
// across them by global run index.
//
//   - "oltp-olap-shift": 15 runs of OLTP traffic, then analytics forever —
//     a one-way workload change mid-session.
//   - "diurnal": alternating 8-run low-load and 8-run high-load OLTP
//     phases, repeating — cyclic load rather than a one-way shift.
var dbmsWorkloads = []builtinWorkload{
	{"tpch", onDBMS(10, workload.TPCHLike)},
	{"oltp", onDBMS(4, func(gb float64) *workload.DBWorkload { return workload.OLTP(64, gb) })},
	{"mixed", onDBMS(6, workload.MixedDB)},
	{"oltp-olap-shift", func(wl string, seed int64, o TargetOptions) (Target, error) {
		return workload.NewDrift(wl, false,
			workload.Phase{Name: "oltp", Target: newDBMS(workload.OLTP(64, scaleOr(o, 4)), seed, o), Runs: 15},
			workload.Phase{Name: "olap", Target: newDBMS(workload.TPCHLike(scaleOr(o, 10)), seed, o), Runs: 15},
		)
	}},
	{"diurnal", func(wl string, seed int64, o TargetOptions) (Target, error) {
		return workload.NewDrift(wl, true,
			workload.Phase{Name: "night", Target: newDBMS(workload.OLTP(16, scaleOr(o, 4)), seed, o), Runs: 8},
			workload.Phase{Name: "day", Target: newDBMS(workload.OLTP(192, scaleOr(o, 4)), seed, o), Runs: 8},
		)
	}},
}

// mrWorkloads are the jobs hadoop and paralleldb both run, at 20 GB by
// default, each bound to a target by bind.
func mrWorkloads[T Target](bind func(cl *cluster.Cluster, job *workload.MRJob, seed int64) T) []builtinWorkload {
	jobs := []struct {
		name string
		job  func(gb float64) *workload.MRJob
	}{
		{"grep", workload.Grep}, {"aggregation", workload.Aggregation}, {"join", workload.JoinMR},
		{"wordcount", workload.WordCount}, {"terasort", workload.TeraSort},
	}
	wls := make([]builtinWorkload, len(jobs))
	for i, j := range jobs {
		wls[i] = builtinWorkload{j.name, func(_ string, seed int64, o TargetOptions) (Target, error) {
			return bind(buildCluster(o), j.job(scaleOr(o, 20)), seed), nil
		}}
	}
	return wls
}

// onSpark is the constructor of a spark workload whose scale defaults to
// def GB.
func onSpark(def float64, job func(gb float64) *workload.SparkJob) func(string, int64, TargetOptions) (Target, error) {
	return func(_ string, seed int64, o TargetOptions) (Target, error) {
		if o.FullSparkSpace {
			return spark.NewFull(buildCluster(o), job(scaleOr(o, def)), seed), nil
		}
		return spark.New(buildCluster(o), job(scaleOr(o, def)), seed), nil
	}
}

var sparkWorkloads = []builtinWorkload{
	{"wordcount", onSpark(20, workload.WordCountSpark)},
	{"terasort", onSpark(20, workload.TeraSortSpark)},
	{"pagerank", onSpark(5, func(gb float64) *workload.SparkJob { return workload.PageRank(gb, 8) })},
	{"kmeans", onSpark(8, func(gb float64) *workload.SparkJob { return workload.KMeansSpark(gb, 10) })},
	{"streaming", onSpark(2, func(gb float64) *workload.SparkJob { return workload.StreamingAgg(gb*1024, 20, 10) })},
}

// —— builtin tuners ———————————————————————————————————————————————————————

type builtinTuner struct {
	name, category, doc string
	build               func(TunerOptions) (Tuner, error)
}

var builtinTuners = []builtinTuner{
	{"rules", "rule-based", "best-practice rulebook for the target system", func(o TunerOptions) (Tuner, error) {
		book, err := rulebased.BookFor(o.TargetName)
		if err != nil {
			return nil, err
		}
		return rulebased.NewTuner(book), nil
	}},
	{"navigator", "rule-based", "impact-ranked one-at-a-time navigation (Xu et al.)", func(o TunerOptions) (Tuner, error) {
		return rulebased.NewNavigator(), nil
	}},
	{"stmm", "cost modeling", "memory cost-benefit balancing (Storm et al.)", func(o TunerOptions) (Tuner, error) {
		return costmodel.NewSTMM(), nil
	}},
	{"starfish", "cost modeling", "MapReduce what-if model + search (Herodotou & Babu)", func(o TunerOptions) (Tuner, error) {
		return costmodel.NewStarfish(o.Seed), nil
	}},
	{"ernest", "cost modeling", "scale-out NNLS model for Spark (Venkataraman et al.)", func(o TunerOptions) (Tuner, error) {
		return costmodel.NewErnest(), nil
	}},
	{"trace-whatif", "simulation", "trace capture + resource replay (Narayanan et al.)", func(o TunerOptions) (Tuner, error) {
		return simulation.NewTraceWhatIf(o.Seed), nil
	}},
	{"addm", "simulation", "wait-component diagnosis + targeted remedies (Dias et al.)", func(o TunerOptions) (Tuner, error) {
		return simulation.NewADDM(), nil
	}},
	{"scaled-proxy", "simulation", "search a scaled replica, verify at full scale", func(o TunerOptions) (Tuner, error) {
		if o.Proxy == nil {
			return nil, fmt.Errorf("repro: scaled-proxy requires TunerOptions.Proxy")
		}
		return simulation.NewScaledProxy(o.Proxy, o.Seed), nil
	}},
	{"random", "experiment-driven", "uniform random search baseline", func(o TunerOptions) (Tuner, error) {
		return &experiment.Random{Seed: o.Seed}, nil
	}},
	{"grid", "experiment-driven", "factorial grid over the top-impact knobs", func(o TunerOptions) (Tuner, error) {
		return &experiment.Grid{}, nil
	}},
	{"rrs", "experiment-driven", "recursive random search (Ye & Kalyanaraman)", func(o TunerOptions) (Tuner, error) {
		return &experiment.RRS{Seed: o.Seed}, nil
	}},
	{"sard", "experiment-driven", "Plackett–Burman screening + focused search (Debnath et al.)", func(o TunerOptions) (Tuner, error) {
		return experiment.NewSARD(o.Seed), nil
	}},
	{"adaptive-sampling", "experiment-driven", "explore/exploit experiment planning (Babu et al.)", func(o TunerOptions) (Tuner, error) {
		return experiment.NewAdaptiveSampling(o.Seed), nil
	}},
	{"ituned", "experiment-driven", "LHS + Gaussian process + EI (Duan et al.)", func(o TunerOptions) (Tuner, error) {
		return experiment.NewITuned(o.Seed), nil
	}},
	{"ottertune", "machine learning", "metric pruning + Lasso + workload mapping + GP (Van Aken et al.)", func(o TunerOptions) (Tuner, error) {
		repo, err := tune.Snapshot(o.Repo, o.TargetName)
		if err != nil {
			return nil, err
		}
		return ml.NewOtterTune(o.Seed, repo), nil
	}},
	{"neural", "machine learning", "MLP surrogate search (Rodd & Kulkarni)", func(o TunerOptions) (Tuner, error) {
		return ml.NewNeuralTuner(o.Seed), nil
	}},
	{"colt", "adaptive", "online cost-vs-gain epoch tuning (Schnaitter et al.)", func(o TunerOptions) (Tuner, error) {
		return adaptive.NewCOLT(o.Seed), nil
	}},
	{"partitions", "adaptive", "dynamic Spark partition control (Gounaris et al.)", func(o TunerOptions) (Tuner, error) {
		return &adaptive.AdaptiveTuner{Label: "partitions", NewController: func() tune.EpochController { return adaptive.NewPartitionController() }}, nil
	}},
	{"memory-manager", "adaptive", "online STMM memory rebalancing", func(o TunerOptions) (Tuner, error) {
		return &adaptive.AdaptiveTuner{Label: "memory-manager", NewController: func() tune.EpochController { return adaptive.NewMemoryManager() }}, nil
	}},
	{"recommender", "adaptive", "repository warm start + online refinement (mrMoulder)", func(o TunerOptions) (Tuner, error) {
		repo, err := tune.Snapshot(o.Repo, o.TargetName)
		if err != nil {
			return nil, err
		}
		return adaptive.NewRecommender(o.Seed, repo), nil
	}},
}

func init() {
	mustNil := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	mustNil(RegisterTarget("dbms", builtinFactory("dbms", dbmsWorkloads)))
	mustNil(RegisterTarget("hadoop", builtinFactory("hadoop", mrWorkloads(mapreduce.New))))
	mustNil(RegisterTarget("spark", builtinFactory("spark", sparkWorkloads)))
	mustNil(RegisterTarget("paralleldb", builtinFactory("paralleldb", mrWorkloads(paralleldb.New))))
	for _, t := range builtinTuners {
		mustNil(RegisterTuner(t.name, t.category, t.doc, t.build))
	}
}
