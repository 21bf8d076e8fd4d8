package spark

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
	"repro/internal/workload"
)

func newPageRank(seed int64) *Spark {
	return New(cluster.Commodity(8), workload.PageRank(2, 6), seed)
}

func avg(s *Spark, cfg tune.Config, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Run(cfg).Time
	}
	return sum / float64(n)
}

func TestDeterministicPerSeed(t *testing.T) {
	a, b := newPageRank(1), newPageRank(1)
	cfg := a.Space().Default()
	if a.Run(cfg).Time != b.Run(cfg).Time {
		t.Error("same seed must reproduce runs")
	}
}

func TestOversizedExecutorFailsPlacement(t *testing.T) {
	s := newPageRank(2)
	bad := s.Space().Default().With(ExecutorMemMB, 16300.0).With(ExecutorCores, 8)
	// 16.3 GB + 8 cores fits exactly one executor per node — shrink RAM
	// need by overshooting memory beyond the node.
	res := s.Run(bad.With(ExecutorMemMB, 16384.0))
	if !res.Failed && res.Metrics["executors_placed"] < 1 {
		t.Error("expected placement failure or minimal placement")
	}
}

func TestMoreExecutorsHelp(t *testing.T) {
	s := newPageRank(3)
	s.NoiseStd = 0.001
	few := avg(s, s.Space().Default().With(NumExecutors, 2), 3)
	many := avg(s, s.Space().Default().With(NumExecutors, 32), 3)
	if many >= few {
		t.Errorf("more executors should help: %v vs %v", many, few)
	}
}

func TestKryoBeatsJava(t *testing.T) {
	s := New(cluster.Commodity(8), workload.TeraSortSpark(5), 4)
	s.NoiseStd = 0.001
	base := s.Space().Default().With(NumExecutors, 16)
	java := avg(s, base.With(Serializer, "java"), 3)
	kryo := avg(s, base.With(Serializer, "kryo"), 3)
	if kryo >= java {
		t.Errorf("kryo (%v) should beat java (%v) on a shuffle-heavy job", kryo, java)
	}
}

func TestCachingHelpsIterativeJobs(t *testing.T) {
	s := newPageRank(5)
	s.NoiseStd = 0.001
	base := s.Space().Default().With(NumExecutors, 16).With(ExecutorMemMB, 6000.0)
	memOnly := s.Run(base.With(StorageLevel, "memory_only"))
	diskOnly := s.Run(base.With(StorageLevel, "disk_only"))
	if memOnly.Metrics["cache_hit_fraction"] <= diskOnly.Metrics["cache_hit_fraction"] {
		t.Error("memory_only should cache more than disk_only")
	}
}

func TestShufflePartitionSweetSpot(t *testing.T) {
	s := New(cluster.Commodity(8), workload.TeraSortSpark(10), 6)
	s.NoiseStd = 0.001
	base := s.Space().Default().With(NumExecutors, 16).With(ExecutorCores, 4)
	tooFew := avg(s, base.With(ShuffleParts, 8), 3)
	good := avg(s, base.With(ShuffleParts, 256), 3)
	if good >= tooFew {
		t.Errorf("8 partitions (%v) should lose to 256 (%v): skew and spills", tooFew, good)
	}
}

func TestStreamingMetrics(t *testing.T) {
	s := New(cluster.Commodity(8), workload.StreamingAgg(512, 8, 10), 7)
	res := s.Run(s.Space().Default())
	for _, k := range []string{"p95_batch_latency_s", "mean_batch_latency_s", "deadline_misses"} {
		if _, ok := res.Metrics[k]; !ok {
			t.Errorf("missing streaming metric %q", k)
		}
	}
}

func TestDriftGrowsBatches(t *testing.T) {
	calm := New(cluster.Commodity(8), workload.StreamingAgg(512, 10, 10), 8)
	drift := New(cluster.Commodity(8), workload.StreamingDrift(512, 10, 10, 0.2), 8)
	calm.NoiseStd, drift.NoiseStd = 0.001, 0.001
	tc := calm.Run(calm.Space().Default()).Time
	td := drift.Run(drift.Space().Default()).Time
	if td <= tc {
		t.Errorf("drifting stream (%v) should take longer than steady (%v)", td, tc)
	}
}

func TestAdaptiveAppliesOnlyRuntimeKnobs(t *testing.T) {
	s := newPageRank(9)
	var sawParts float64
	ctl := epochFunc(func(i int, cur tune.Config, prev map[string]float64) tune.Config {
		// Try to change both a runtime knob and a restart knob.
		next := cur.With(ShuffleParts, 64).With(NumExecutors, 32)
		sawParts = next.Native(ShuffleParts)
		return next
	})
	res := s.RunAdaptive(s.Space().Default(), ctl)
	if sawParts == 0 {
		t.Fatal("controller never ran")
	}
	// Executor count must stay at the deployment's value (default 2).
	if res.Metrics["executors_placed"] > 3 {
		t.Errorf("executor sizing changed mid-run: %v", res.Metrics["executors_placed"])
	}
	if res.Metrics["shuffle_partitions"] < 30 {
		t.Errorf("runtime knob should have been applied: %v", res.Metrics["shuffle_partitions"])
	}
}

type epochFunc func(i int, cur tune.Config, prev map[string]float64) tune.Config

func (f epochFunc) Epoch(i int, cur tune.Config, prev map[string]float64) tune.Config {
	return f(i, cur, prev)
}

func TestFullSpaceShape(t *testing.T) {
	cl := cluster.Commodity(8)
	full := FullSpace(cl)
	if full.Dim() < 195 || full.Dim() > 210 {
		t.Errorf("full space has %d parameters, want ~200", full.Dim())
	}
	eff := full.EffectiveDim()
	if eff < 25 || eff > 35 {
		t.Errorf("effective parameters = %d, want ~30", eff)
	}
	// The effective space must be a prefix-compatible subset.
	effSpace := Space(cl)
	for _, name := range effSpace.Names() {
		if _, ok := full.Param(name); !ok {
			t.Errorf("effective knob %q missing from full space", name)
		}
	}
}

func TestSecondTierKnobsWired(t *testing.T) {
	cl := cluster.Commodity(8)
	s := NewFull(cl, workload.TeraSortSpark(10), 10)
	s.NoiseStd = 0.0001
	base := s.Space().Default().With(NumExecutors, 16).With(ExecutorCores, 4).
		With(ExecutorMemMB, 1024.0).With(ShuffleParts, 64)
	// Storage fraction shifts execution memory: extremes should differ.
	lo := avg(s, base.With("spark_memory_storage_fraction", 0.2), 3)
	hi := avg(s, base.With("spark_memory_storage_fraction", 0.8), 3)
	if math.Abs(lo-hi)/math.Max(lo, hi) < 0.005 {
		t.Errorf("storage fraction has no effect: %v vs %v", lo, hi)
	}
}

func TestRunAlwaysWellFormed(t *testing.T) {
	s := newPageRank(11)
	space := s.Space()
	f := func(raw [14]float64) bool {
		x := make([]float64, space.Dim())
		for i := range x {
			x[i] = math.Abs(math.Mod(raw[i%14], 1))
			if math.IsNaN(x[i]) {
				x[i] = 0.5
			}
		}
		res := s.Run(space.FromVector(x))
		return res.Time > 0 && !math.IsNaN(res.Time) && !math.IsInf(res.Time, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFidelityContract pins the tune.FidelityTarget contract for Spark:
// full fidelity is bit-identical to the plain indexed run, and expected
// cost is monotone non-decreasing in the input fraction.
func TestFidelityContract(t *testing.T) {
	s := New(cluster.Commodity(8), workload.TeraSortSpark(8), 5)
	cfg := s.Space().Default()
	if full, plain := s.RunIndexedFidelity(nil, 4, 1, cfg), New(cluster.Commodity(8), workload.TeraSortSpark(8), 5).RunIndexed(4, cfg); full.Time != plain.Time {
		t.Fatalf("fidelity 1 (%v) differs from RunIndexed (%v)", full.Time, plain.Time)
	}
	avg := func(f float64) float64 {
		var sum float64
		for i := int64(1); i <= 20; i++ {
			sum += s.RunIndexedFidelity(nil, i, f, cfg).Time
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

// TestMultiMetricBitwiseRepeatable pins the spark metric paths (batch and
// streaming, which aggregates per-epoch metric maps) against map-iteration-
// order nondeterminism: the same (seed, run index, config) reproduces the
// full Result bit for bit across fresh instances — the property that keeps
// Pareto cost scoring and byte-identical event streams honest.
func TestMultiMetricBitwiseRepeatable(t *testing.T) {
	mk := map[string]func() *Spark{
		"pagerank":  func() *Spark { return New(cluster.Commodity(8), workload.PageRank(2, 6), 5) },
		"streaming": func() *Spark { return New(cluster.Commodity(8), workload.StreamingAgg(512, 8, 10), 5) },
	}
	for name, build := range mk {
		t.Run(name, func(t *testing.T) {
			cfg := build().Space().Default()
			var want []byte
			for rep := 0; rep < 6; rep++ {
				res := build().RunIndexed(3, cfg)
				if len(res.Metrics) < 2 {
					t.Fatalf("%d metrics — the golden would be vacuous", len(res.Metrics))
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if rep == 0 {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("rep %d diverged:\n  first: %s\n  now:   %s", rep, want, got)
				}
			}
		})
	}
}

// BenchmarkSimulate times one simulated trial of the spark/pagerank target
// the registry builds (5 GB, 8 iterations, 16 commodity nodes): 243 random
// configurations, each run at one of a Hyperband bracket's fidelities 1/9,
// 1/3 and 1 in turn. ns/op is per run.
func BenchmarkSimulate(b *testing.B) {
	s := New(cluster.Commodity(16), workload.PageRank(5, 8), 1)
	r := rand.New(rand.NewSource(1))
	cfgs := make([]tune.Config, 243)
	for i := range cfgs {
		cfgs[i] = s.Space().Random(r)
	}
	fids := []float64{1.0 / 9, 1.0 / 3, 1}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s.RunIndexedFidelity(nil, int64(i), fids[i%3], cfgs[i%len(cfgs)])
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
	put(boolMetric(res.Failed))
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
// scheduler, the quantile, the shares and the stage durations may get faster
// but not different. The digest below is of Run and RunIndexedFidelity over
// random jobs, spaces, seeds, configurations and fidelities, taken with all
// four as first written: the linear-scan scheduler (cluster's
// slotScheduleOracle), a sorted copy indexed for the quantile (cluster's
// sortedAtBySort), zipfShares called per stage and
// every task's duration computed afresh in every stage.
func TestSimulateResultsUnchanged(t *testing.T) {
	const want = uint64(0x4342a34598e7daa7)
	r := rand.New(rand.NewSource(47))
	jobs := []func() *workload.SparkJob{
		func() *workload.SparkJob { return workload.PageRank(2, 6) },
		func() *workload.SparkJob { return workload.TeraSortSpark(5) },
		func() *workload.SparkJob { return workload.KMeansSpark(3, 5) },
		func() *workload.SparkJob { return workload.StreamingDrift(200, 12, 5, 0.03) },
	}
	h := fnv.New64a()
	for trial := 0; trial < 400; trial++ {
		cl, job, seed := cluster.Commodity(4+r.Intn(8)), jobs[r.Intn(len(jobs))](), r.Int63n(1000)
		s := New(cl, job, seed)
		if r.Intn(3) == 0 {
			s = NewFull(cl, job, seed)
		}
		cfg := s.Space().Random(r)
		if r.Intn(2) == 0 {
			resultDigest(h, s.Run(cfg))
		} else {
			resultDigest(h, s.RunIndexedFidelity(context.Background(), 1+r.Int63n(50), 0.05+r.Float64(), cfg))
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest of 400 simulated runs = %#x, want %#x: a result changed", got, want)
	}
}

// TestAdaptiveResultsUnchanged pins RunAdaptive as TestSimulateResultsUnchanged
// pins the plain paths: a fixed controller that keeps the configuration on
// even epochs and draws a new one on odd epochs (only its runtime knobs take
// effect), over iterative, streaming and batch jobs, with plain runs between
// adaptive ones on the same target. The metrics each epoch hands the
// controller are digested too.
func TestAdaptiveResultsUnchanged(t *testing.T) {
	const want = uint64(0x4fde230ad1d664a8)
	r := rand.New(rand.NewSource(71))
	h := fnv.New64a()
	ctl := epochFunc(func(i int, cur tune.Config, prev map[string]float64) tune.Config {
		resultDigest(h, tune.Result{Metrics: prev})
		if i%2 == 0 {
			return cur
		}
		return cur.Space().Random(r)
	})
	jobs := []func() *workload.SparkJob{
		func() *workload.SparkJob { return workload.PageRank(2, 6) },
		func() *workload.SparkJob { return workload.TeraSortSpark(5) },
		func() *workload.SparkJob { return workload.KMeansSpark(3, 5) },
		func() *workload.SparkJob { return workload.StreamingDrift(200, 12, 5, 0.03) },
	}
	for trial := 0; trial < 24; trial++ {
		s := New(cluster.Commodity(4+trial%8), jobs[trial%len(jobs)](), int64(trial))
		for k := 0; k < 3; k++ {
			resultDigest(h, s.Run(s.Space().Random(r)))
			resultDigest(h, s.RunAdaptive(s.Space().Default(), ctl))
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest of 72 adaptive runs = %#x, want %#x: a result changed", got, want)
	}
}
