package dbms

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
	"repro/internal/workload"
)

func newTPCH(seed int64) *DBMS {
	return New(cluster.CommodityNode(), workload.TPCHLike(4), seed)
}

func newOLTP(seed int64) *DBMS {
	return New(cluster.CommodityNode(), workload.OLTP(64, 2), seed)
}

func TestDeterministicPerSeed(t *testing.T) {
	a, b := newTPCH(7), newTPCH(7)
	cfg := a.Space().Default()
	for i := 0; i < 5; i++ {
		ra, rb := a.Run(cfg), b.Run(cfg)
		if ra.Time != rb.Time {
			t.Fatalf("run %d: %v != %v", i, ra.Time, rb.Time)
		}
	}
}

func TestNoiseVariesAcrossRuns(t *testing.T) {
	d := newTPCH(8)
	cfg := d.Space().Default()
	if d.Run(cfg).Time == d.Run(cfg).Time {
		t.Error("repeated runs should differ by noise")
	}
}

// averaged damps run noise for monotonicity checks.
func averaged(d *DBMS, cfg tune.Config, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += d.Run(cfg).Time
	}
	return s / float64(n)
}

func TestBufferPoolHelpsScans(t *testing.T) {
	d := newTPCH(9)
	d.NoiseStd = 0.001
	small := d.Space().Default().With(BufferPoolMB, 128.0)
	big := d.Space().Default().With(BufferPoolMB, 6000.0)
	if ts, tb := averaged(d, small, 3), averaged(d, big, 3); tb >= ts {
		t.Errorf("bigger buffer pool should help: %v vs %v", ts, tb)
	}
}

func TestWorkMemAvoidsSpills(t *testing.T) {
	d := newTPCH(10)
	d.NoiseStd = 0.001
	def := d.Space().Default()
	rSmall := d.Run(def.With(WorkMemMB, 2.0))
	rBig := d.Run(def.With(WorkMemMB, 512.0))
	if rBig.Metrics["temp_io_mb"] >= rSmall.Metrics["temp_io_mb"] {
		t.Errorf("more work_mem should spill less: %v vs %v",
			rSmall.Metrics["temp_io_mb"], rBig.Metrics["temp_io_mb"])
	}
	if rBig.Time >= rSmall.Time {
		t.Errorf("spill reduction should shorten runtime: %v vs %v", rSmall.Time, rBig.Time)
	}
}

func TestMemoryOversubscriptionFails(t *testing.T) {
	d := newTPCH(11)
	bad := d.Space().Default().
		With(BufferPoolMB, 15000.0).
		With(WorkMemMB, 2048.0).
		With(MaxWorkers, 32).
		With(MaxConnections, 512)
	res := d.Run(bad)
	if !res.Failed {
		t.Fatalf("oversubscribed config should fail, metrics: %v", res.Metrics["mem_oversubscription"])
	}
	if res.FailReason == "" {
		t.Error("failure should carry a reason")
	}
}

func TestMetricsPresent(t *testing.T) {
	d := newOLTP(12)
	res := d.Run(d.Space().Default())
	for _, key := range []string{
		"buffer_hit_ratio", "cpu_seconds", "lock_wait_s", "deadlocks",
		"wal_mb", "mem_used_mb", "throughput_ops", "epoch_time",
	} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("missing metric %q", key)
		}
	}
	if h := res.Metrics["buffer_hit_ratio"]; h < 0 || h > 1 {
		t.Errorf("hit ratio %v out of [0,1]", h)
	}
}

func TestOLTPContentionRespondsToConnections(t *testing.T) {
	d := newOLTP(13)
	d.NoiseStd = 0.001
	few := d.Run(d.Space().Default().With(MaxConnections, 16))
	many := d.Run(d.Space().Default().With(MaxConnections, 512))
	if few.Metrics["lock_wait_s"] > many.Metrics["lock_wait_s"] {
		t.Errorf("more connections should contend more: %v vs %v",
			few.Metrics["lock_wait_s"], many.Metrics["lock_wait_s"])
	}
}

func TestPlannerMisleadByStats(t *testing.T) {
	d := newTPCH(14)
	d.NoiseStd = 0.001
	rich := averaged(d, d.Space().Default().With(StatsTarget, 1000), 5)
	poor := averaged(d, d.Space().Default().With(StatsTarget, 10), 5)
	// Poor statistics cause misestimates and occasional bad plans; the rich
	// setting should never be meaningfully worse.
	if rich > poor*1.1 {
		t.Errorf("rich stats (%v) should not lose badly to poor stats (%v)", rich, poor)
	}
}

func TestAdaptiveRunMatchesEpochs(t *testing.T) {
	d := newTPCH(15)
	calls := 0
	ctl := epochFunc(func(i int, cur tune.Config, prev map[string]float64) tune.Config {
		calls++
		if i == 0 && prev != nil {
			t.Error("first epoch should have nil prev metrics")
		}
		return cur
	})
	res := d.RunAdaptive(d.Space().Default(), ctl)
	if calls != d.Epochs() {
		t.Errorf("controller called %d times, want %d", calls, d.Epochs())
	}
	if res.Time <= 0 {
		t.Error("adaptive run should accumulate time")
	}
	// An adaptive run with a no-op controller costs about one plain run.
	plain := averaged(d, d.Space().Default(), 3)
	if res.Time < plain*0.5 || res.Time > plain*1.5 {
		t.Errorf("no-op adaptive run %v far from plain run %v", res.Time, plain)
	}
}

func TestAdaptivePenalizesDisruptiveChange(t *testing.T) {
	d := newTPCH(16)
	d.NoiseStd = 0.0001
	flip := epochFunc(func(i int, cur tune.Config, prev map[string]float64) tune.Config {
		// Toggle max_connections between two behaviorally equivalent values:
		// a restart-class change with no performance upside, isolating the
		// churn penalty itself.
		if i%2 == 1 {
			return cur.With(MaxConnections, 101)
		}
		return cur.With(MaxConnections, 100)
	})
	noop := epochFunc(func(i int, cur tune.Config, prev map[string]float64) tune.Config { return cur })
	d2 := newTPCH(16)
	d2.NoiseStd = 0.0001
	flippy := d.RunAdaptive(d.Space().Default(), flip)
	calm := d2.RunAdaptive(d2.Space().Default(), noop)
	if flippy.Time <= calm.Time {
		t.Errorf("restart-class churn should cost time: %v vs %v", flippy.Time, calm.Time)
	}
}

type epochFunc func(i int, cur tune.Config, prev map[string]float64) tune.Config

func (f epochFunc) Epoch(i int, cur tune.Config, prev map[string]float64) tune.Config {
	return f(i, cur, prev)
}

func TestWorkloadFeatures(t *testing.T) {
	f := newTPCH(17).WorkloadFeatures()
	if f["data_gb"] <= 0 || f["scan_frac"] <= 0 {
		t.Errorf("features = %v", f)
	}
	fo := newOLTP(18).WorkloadFeatures()
	if fo["update_frac"] <= 0 {
		t.Errorf("oltp should have updates: %v", fo)
	}
}

func TestSpecs(t *testing.T) {
	s := newTPCH(19).Specs()
	if s["ram_mb"] != 16*1024 || s["cores"] != 8 {
		t.Errorf("specs = %v", s)
	}
}

// Property: every run under any configuration returns positive finite time
// and non-negative metrics.
func TestRunAlwaysWellFormed(t *testing.T) {
	d := newTPCH(20)
	space := d.Space()
	f := func(raw [16]float64) bool {
		x := make([]float64, space.Dim())
		for i := range x {
			x[i] = math.Abs(math.Mod(raw[i%16], 1))
			if math.IsNaN(x[i]) {
				x[i] = 0.5
			}
		}
		res := d.Run(space.FromVector(x))
		if !(res.Time > 0) || math.IsInf(res.Time, 0) || math.IsNaN(res.Time) {
			return false
		}
		for _, v := range res.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFidelityContract pins the tune.FidelityTarget contract: full fidelity
// is bit-identical to the plain indexed run, and expected cost is monotone
// non-decreasing in the fidelity fraction (averaged over indices to damp
// the run noise).
func TestFidelityContract(t *testing.T) {
	d := newTPCH(11)
	cfg := d.Space().Default()
	if full, plain := d.RunIndexedFidelity(nil, 5, 1, cfg), d.RunIndexedFidelity(nil, 5, 1, cfg); full.Time != plain.Time {
		t.Fatalf("fidelity 1 not deterministic: %v vs %v", full.Time, plain.Time)
	}
	if full, plain := d.RunIndexedFidelity(nil, 5, 1, cfg), newTPCH(11).RunIndexed(5, cfg); full.Time != plain.Time {
		t.Fatalf("fidelity 1 (%v) differs from RunIndexed (%v)", full.Time, plain.Time)
	}
	avg := func(f float64) float64 {
		var s float64
		for i := int64(1); i <= 20; i++ {
			s += d.RunIndexedFidelity(nil, i, f, cfg).Time
		}
		return s / 20
	}
	prev := 0.0
	for _, f := range []float64{1.0 / 9, 1.0 / 3, 1} {
		c := avg(f)
		if c <= prev {
			t.Fatalf("cost not monotone in fidelity: cost(%v) = %v after %v", f, c, prev)
		}
		prev = c
	}
	// Out-of-range fidelities clamp instead of exploding.
	if r := d.RunIndexedFidelity(nil, 3, -1, cfg); r.Time <= 0 {
		t.Fatalf("clamped fidelity produced %v", r.Time)
	}
}

// TestMultiMetricBitwiseRepeatable pins every metric-producing path against
// map-iteration-order nondeterminism: the same (seed, run index, config)
// must reproduce the full Result — time, dollar cost, and every metric —
// bit for bit, in fresh instances and across repetitions. Aggregations
// summing a metric map in range order would pass an approximate check and
// still break byte-identical event streams in the last ulp (the
// buffer_hit_ratio bug); JSON round-trips expose exactly those ulps, and
// the tenant variant covers the cloud interference path feeding Pareto
// cost scoring.
func TestMultiMetricBitwiseRepeatable(t *testing.T) {
	mk := map[string]func() *DBMS{
		"tpch": func() *DBMS { return newTPCH(5) },
		"oltp": func() *DBMS { return newOLTP(5) },
		"oltp+tenant": func() *DBMS {
			d := newOLTP(5)
			d.Tenant = cluster.Commodity(8)
			return d
		},
	}
	for name, build := range mk {
		t.Run(name, func(t *testing.T) {
			probe := build()
			cfgs := []tune.Config{
				probe.Space().Default(),
				probe.Space().Default().With(BufferPoolMB, 256.0),
				probe.Space().Default().With(WorkMemMB, 4.0),
			}
			for ci, cfg := range cfgs {
				var want []byte
				for rep := 0; rep < 6; rep++ {
					res := build().RunIndexed(3, cfg)
					if len(res.Metrics) < 2 {
						t.Fatalf("config %d: %d metrics — the golden would be vacuous", ci, len(res.Metrics))
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
						t.Fatalf("config %d rep %d diverged:\n  first: %s\n  now:   %s", ci, rep, want, got)
					}
				}
			}
		})
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
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		h.Write([]byte(k))
		put(res.Metrics[k])
	}
}

// runAny runs cfg on t through one of the four run entry points, picked by
// r, at an index and fidelity drawn from r (fidelities above 1 clamp to 1).
func runAny(r *rand.Rand, t tune.ConcurrentFidelityTarget, cfg tune.Config) tune.Result {
	i, f := 1+r.Int63n(50), 0.05+r.Float64()
	switch r.Intn(4) {
	case 0:
		return t.Run(cfg)
	case 1:
		return t.RunIndexed(i, cfg)
	case 2:
		return t.RunFidelity(context.Background(), f, cfg)
	default:
		return t.RunIndexedFidelity(context.Background(), i, f, cfg)
	}
}

// The simulator's results are part of every recorded event stream, so the
// way runs are keyed may be rewritten but no result may change. The digest
// is of 400 runs through all four entry points over random workloads,
// seeds, tenant loads, configurations, run indices and fidelities; a target
// serves several runs, so the run counter is digested too.
func TestDBMSResultsUnchanged(t *testing.T) {
	const want = uint64(0x860403a9c3bf4075)
	r := rand.New(rand.NewSource(59))
	wls := []func() *workload.DBWorkload{
		func() *workload.DBWorkload { return workload.TPCHLike(2 + 10*r.Float64()) },
		func() *workload.DBWorkload { return workload.OLTP(8+r.Intn(200), 1+4*r.Float64()) },
		func() *workload.DBWorkload { return workload.MixedDB(2 + 6*r.Float64()) },
	}
	h := fnv.New64a()
	var d *DBMS
	failed := 0
	for trial := 0; trial < 400; trial++ {
		if d == nil || r.Intn(3) == 0 {
			d = New(cluster.CommodityNode(), wls[r.Intn(len(wls))](), r.Int63n(1000))
			if r.Intn(3) == 0 {
				d.Tenant = cluster.Commodity(4).MultiTenant(0.1+0.5*r.Float64(), 0.3*r.Float64())
			}
		}
		res := runAny(r, d, d.Space().Random(r))
		if res.Failed {
			failed++
		}
		resultDigest(h, res)
	}
	if failed > 100 {
		t.Errorf("%d of 400 runs failed — the digest would hardly reach the cost model", failed)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest of 400 simulated runs = %#x, want %#x: a result changed", got, want)
	}
}

// TestDBMSAdaptiveResultsUnchanged pins RunAdaptive the same way: a fixed
// controller that keeps the configuration on even epochs and draws a new
// one on odd epochs (so restart penalties fire), with plain runs between
// adaptive ones on the same target. The metrics each epoch hands the
// controller are digested too.
func TestDBMSAdaptiveResultsUnchanged(t *testing.T) {
	const want = uint64(0x2339f46ed2b989e9)
	r := rand.New(rand.NewSource(61))
	h := fnv.New64a()
	ctl := epochFunc(func(i int, cur tune.Config, prev map[string]float64) tune.Config {
		resultDigest(h, tune.Result{Metrics: prev})
		if i%2 == 0 {
			return cur
		}
		return cur.Space().Random(r)
	})
	for trial := 0; trial < 24; trial++ {
		d := New(cluster.CommodityNode(), []*workload.DBWorkload{
			workload.TPCHLike(4), workload.OLTP(64, 2), workload.MixedDB(3),
		}[trial%3], int64(trial))
		if trial%4 == 3 {
			d.Tenant = cluster.Commodity(4).MultiTenant(0.3, 0.2)
		}
		for k := 0; k < 3; k++ {
			resultDigest(h, d.Run(d.Space().Random(r)))
			resultDigest(h, d.RunAdaptive(d.Space().Default(), ctl))
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest of 72 adaptive runs = %#x, want %#x: a result changed", got, want)
	}
}
