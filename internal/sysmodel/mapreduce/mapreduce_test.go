package mapreduce

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
	"repro/internal/workload"
)

func newTerasort(seed int64) *Hadoop {
	return New(cluster.Commodity(8), workload.TeraSort(10), seed)
}

func avg(h *Hadoop, cfg tune.Config, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += h.Run(cfg).Time
	}
	return s / float64(n)
}

func TestDeterministicPerSeed(t *testing.T) {
	a, b := newTerasort(1), newTerasort(1)
	cfg := a.Space().Default()
	if a.Run(cfg).Time != b.Run(cfg).Time {
		t.Error("same seed must reproduce the same run")
	}
}

func TestSortBufferOverHeapFails(t *testing.T) {
	h := newTerasort(2)
	bad := h.Space().Default().With(IOSortMB, 900.0).With(JVMHeapMB, 400.0)
	res := h.Run(bad)
	if !res.Failed || !strings.Contains(res.FailReason, "OOM") {
		t.Errorf("expected task OOM, got %+v", res.FailReason)
	}
}

func TestSlotHeapOverRAMFails(t *testing.T) {
	h := newTerasort(3)
	bad := h.Space().Default().
		With(JVMHeapMB, 4000.0).
		With(MapSlots, 8).
		With(RedSlots, 8)
	res := h.Run(bad)
	if !res.Failed {
		t.Error("expected node memory exhaustion")
	}
}

func TestParallelReducersBeatStockSingleReducer(t *testing.T) {
	h := newTerasort(4)
	h.NoiseStd = 0.001
	one := avg(h, h.Space().Default().With(ReduceTasks, 1), 3)
	many := avg(h, h.Space().Default().With(ReduceTasks, 48), 3)
	if many >= one {
		t.Errorf("48 reducers (%v) should beat 1 (%v)", many, one)
	}
	if one/many < 3 {
		t.Errorf("serialized reduce should be several times slower, got %.1fx", one/many)
	}
}

func TestCompressionHelpsShuffleHeavyJob(t *testing.T) {
	h := newTerasort(5)
	h.NoiseStd = 0.001
	base := h.Space().Default().With(ReduceTasks, 32)
	plain := avg(h, base.With(MapCompression, "none"), 3)
	snappy := avg(h, base.With(MapCompression, "snappy"), 3)
	if snappy >= plain {
		t.Errorf("snappy (%v) should beat none (%v) on terasort", snappy, plain)
	}
}

func TestCombinerOnlyHelpsReducibleJobs(t *testing.T) {
	wc := New(cluster.Commodity(8), workload.WordCount(10), 6)
	wc.NoiseStd = 0.001
	base := wc.Space().Default().With(ReduceTasks, 32)
	off := avg(wc, base.With(Combiner, false), 3)
	on := avg(wc, base.With(Combiner, true), 3)
	if on >= off {
		t.Errorf("combiner should help wordcount: %v vs %v", on, off)
	}
	res := wc.Run(base.With(Combiner, true))
	if res.Metrics["shuffle_mb"] >= wc.Run(base.With(Combiner, false)).Metrics["shuffle_mb"] {
		t.Error("combiner should shrink the shuffle")
	}
}

func TestSpeculativeExecutionTrimsTail(t *testing.T) {
	// Average over multiple runs: stragglers are random.
	h := newTerasort(7)
	base := h.Space().Default().With(ReduceTasks, 32)
	on := avg(h, base.With(Speculative, true), 12)
	off := avg(h, base.With(Speculative, false), 12)
	if on >= off {
		t.Errorf("speculation should reduce mean runtime: on %v, off %v", on, off)
	}
}

func TestJVMReuseHelpsManySmallTasks(t *testing.T) {
	h := newTerasort(8)
	h.NoiseStd = 0.001
	base := h.Space().Default().With(SplitMB, 16.0).With(ReduceTasks, 32)
	reuse := avg(h, base.With(JVMReuse, true), 3)
	fresh := avg(h, base.With(JVMReuse, false), 3)
	if reuse >= fresh {
		t.Errorf("JVM reuse should amortize startup: %v vs %v", reuse, fresh)
	}
}

func TestMetricsAndFeatures(t *testing.T) {
	h := newTerasort(9)
	res := h.Run(h.Space().Default())
	for _, k := range []string{"map_tasks", "reduce_tasks", "shuffle_mb", "map_phase_s", "spilled_mb"} {
		if _, ok := res.Metrics[k]; !ok {
			t.Errorf("missing metric %q", k)
		}
	}
	f := h.WorkloadFeatures()
	if f["input_gb"] != 10 {
		t.Errorf("features = %v", f)
	}
	if h.Specs()["nodes"] != 8 {
		t.Error("specs wrong")
	}
}

func TestHeterogeneousSlowerThanHomogeneous(t *testing.T) {
	job := workload.TeraSort(10)
	homog := New(cluster.Commodity(8), job, 10)
	hetero := New(cluster.Heterogeneous(8), job, 10)
	homog.NoiseStd, hetero.NoiseStd = 0.001, 0.001
	cfg := homog.Space().Default().With(ReduceTasks, 32)
	th := avg(homog, cfg, 3)
	tt := avg(hetero, hetero.Space().Default().With(ReduceTasks, 32), 3)
	if tt <= th {
		t.Errorf("wave pacing by the weakest node should hurt: hetero %v vs homog %v", tt, th)
	}
}

func TestRunAlwaysWellFormed(t *testing.T) {
	h := newTerasort(11)
	space := h.Space()
	f := func(raw [14]float64) bool {
		x := make([]float64, space.Dim())
		for i := range x {
			x[i] = math.Abs(math.Mod(raw[i%14], 1))
			if math.IsNaN(x[i]) {
				x[i] = 0.5
			}
		}
		res := h.Run(space.FromVector(x))
		return res.Time > 0 && !math.IsNaN(res.Time) && !math.IsInf(res.Time, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// resultDigest folds every bit of a result into h.
func resultDigest(h hash.Hash64, res tune.Result) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	put(res.Time)
	put(res.Cost)
	if res.Failed {
		h.Write([]byte(res.FailReason))
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.Write([]byte(k))
		put(res.Metrics[k])
	}
}

// The simulator's results are part of every recorded event stream, so the
// scheduler may get faster but not different. The digest below is of Run and
// RunIndexedFidelity over random jobs, homogeneous, heterogeneous and shared
// clusters, seeds, configurations and fidelities, taken with the map and
// reduce waves scheduled by a linear scan for the idle slot.
func TestMapReduceResultsUnchanged(t *testing.T) {
	const want = uint64(0x3b95c060311a8600)
	r := rand.New(rand.NewSource(53))
	jobs := []func() *workload.MRJob{
		func() *workload.MRJob { return workload.TeraSort(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.WordCount(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.Grep(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.Aggregation(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.JoinMR(2 + 8*r.Float64()) },
	}
	h := fnv.New64a()
	failed := 0
	for trial := 0; trial < 400; trial++ {
		n := 4 + r.Intn(8)
		cl := cluster.Commodity(n)
		switch r.Intn(3) {
		case 1:
			cl = cluster.Heterogeneous(n)
		case 2:
			cl = cl.MultiTenant(0.3, 0.2)
		}
		hd := New(cl, jobs[r.Intn(len(jobs))](), r.Int63n(1000))
		// Most random configurations fail simulate's memory checks before a
		// task is scheduled: redraw such a configuration seven times in eight.
		cfg := hd.Space().Random(r)
		for !fits(cl, cfg) && r.Intn(8) != 0 {
			cfg = hd.Space().Random(r)
		}
		var res tune.Result
		if r.Intn(2) == 0 {
			res = hd.Run(cfg)
		} else {
			res = hd.RunIndexedFidelity(context.Background(), 1+r.Int63n(50), 0.05+r.Float64(), cfg)
		}
		if res.Failed {
			failed++
		}
		resultDigest(h, res)
	}
	if failed > 100 {
		t.Errorf("%d of 400 runs failed — the digest would hardly reach the scheduler", failed)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest of 400 simulated runs = %#x, want %#x: a result changed", got, want)
	}
}

// fits reports whether cfg passes simulate's two memory checks on cl.
func fits(cl *cluster.Cluster, cfg tune.Config) bool {
	heap := cfg.Float(JVMHeapMB)
	return cfg.Float(IOSortMB) <= 0.7*heap &&
		heap*float64(cfg.Int(MapSlots)+cfg.Int(RedSlots)) <= cl.MinNode().RAMMB*0.9
}

// TestFidelityContract pins the tune.FidelityTarget contract for Hadoop:
// full fidelity is bit-identical to the plain indexed run, and expected
// cost is monotone non-decreasing in the input fraction.
func TestFidelityContract(t *testing.T) {
	h := New(cluster.Commodity(8), workload.TeraSort(8), 5)
	cfg := h.Space().Default()
	if full, plain := h.RunIndexedFidelity(nil, 4, 1, cfg), New(cluster.Commodity(8), workload.TeraSort(8), 5).RunIndexed(4, cfg); full.Time != plain.Time {
		t.Fatalf("fidelity 1 (%v) differs from RunIndexed (%v)", full.Time, plain.Time)
	}
	avg := func(f float64) float64 {
		var sum float64
		for i := int64(1); i <= 20; i++ {
			sum += h.RunIndexedFidelity(nil, i, f, cfg).Time
		}
		return sum / 20
	}
	prev := 0.0
	for _, f := range []float64{1.0 / 9, 1.0 / 3, 1} {
		c := avg(f)
		if c <= prev {
			t.Fatalf("cost not monotone in fidelity: cost(%v) = %v after %v", f, c, prev)
		}
		prev = c
	}
}
