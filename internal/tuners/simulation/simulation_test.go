package simulation

import (
	"context"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/sysmodel/trace"
	"repro/internal/tune"
	"repro/internal/workload"
)

func testTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

func TestTraceFromMetricsRecoversDemand(t *testing.T) {
	m := map[string]float64{
		"buffer_hit_ratio":   0.5,
		"seq_read_mb":        100,
		"rand_read_mb":       10,
		"cpu_seconds":        20,
		"active_connections": 4,
	}
	tr := TraceFromMetrics(m, map[string]float64{"clock_ghz": 2})
	if len(tr.Ops) != 1 {
		t.Fatalf("trace has %d ops", len(tr.Ops))
	}
	op := tr.Ops[0]
	// At a 50% hit ratio, observed misses are half the full demand.
	if op.SeqReadMB < 199 || op.SeqReadMB > 201 {
		t.Errorf("seq demand %v, want ≈200", op.SeqReadMB)
	}
	if op.RandReadMB < 19.9 || op.RandReadMB > 20.1 {
		t.Errorf("rand demand %v, want ≈20", op.RandReadMB)
	}
	if tr.Concurrency != 4 {
		t.Errorf("concurrency %v, want 4", tr.Concurrency)
	}
	// A saturated hit ratio must not produce infinite demand.
	m["buffer_hit_ratio"] = 1.2
	if d := TraceFromMetrics(m, nil).Ops[0].SeqReadMB; d <= 0 || d > 1e7 {
		t.Errorf("saturated hit ratio produced demand %v", d)
	}
}

func TestReplayRespondsToResources(t *testing.T) {
	m := map[string]float64{
		"buffer_hit_ratio": 0.5, "seq_read_mb": 200, "rand_read_mb": 40,
		"cpu_seconds": 10, "active_connections": 2,
	}
	specs := map[string]float64{"cores": 4, "clock_ghz": 2, "disk_mbps": 100, "ram_mb": 8192}
	tr := TraceFromMetrics(m, specs)
	base := trace.Replay(tr, trace.Resources{
		Cores: 4, ClockGHz: 2, SeqMBps: 100, RandMBps: 10, WriteMBps: 80,
		CacheMB: 256, CacheExponent: 0.7, WorkMemMB: 4,
	})
	bigger := trace.Replay(tr, trace.Resources{
		Cores: 4, ClockGHz: 2, SeqMBps: 100, RandMBps: 10, WriteMBps: 80,
		CacheMB: 4096, CacheExponent: 0.7, WorkMemMB: 4,
	})
	if !(bigger < base) {
		t.Errorf("a larger cache should replay faster: %v vs %v", bigger, base)
	}
	faster := trace.Replay(tr, trace.Resources{
		Cores: 4, ClockGHz: 2, SeqMBps: 400, RandMBps: 40, WriteMBps: 320,
		CacheMB: 256, CacheExponent: 0.7, WorkMemMB: 4,
	})
	if !(faster < base) {
		t.Errorf("faster disks should replay faster: %v vs %v", faster, base)
	}
}

func TestTraceWhatIfProposerFlow(t *testing.T) {
	target := testTarget(9)
	tw := NewTraceWhatIf(9)
	p, err := tw.NewProposer(target, tune.Budget{Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	probes := p.Propose(3)
	if len(probes) != 1 {
		t.Fatalf("expected 1 probe, got %d", len(probes))
	}
	if probes[0].String() != target.Space().Default().String() {
		t.Fatal("probe should run the default configuration")
	}
	res := target.Run(probes[0])
	p.Observe(tune.Trial{N: 1, Config: probes[0], Result: res})
	recs := p.Propose(3)
	if len(recs) != 1 {
		t.Fatalf("expected 1 recommendation, got %d", len(recs))
	}
	if recs[0].String() == probes[0].String() {
		t.Error("recommendation should move off the default")
	}
	if r, ok := p.(tune.Recommender); !ok || !r.Recommend().Valid() {
		t.Error("trace proposer should recommend after capturing")
	}
}

func TestTraceWhatIfTuneReplayGuidedImprovement(t *testing.T) {
	target := testTarget(10)
	def := target.Run(target.Space().Default())
	b, tuned := tune.Budget{Trials: 3}, testTarget(11)
	p, err := NewTraceWhatIf(10).NewProposer(tuned, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tune.DriveProposer(context.Background(), "trace-whatif", tuned, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) < 2 {
		t.Fatalf("expected probe + verification trials, got %d", len(r.Trials))
	}
	if r.BestResult.Time >= def.Time {
		t.Errorf("replay-guided tuning did not improve: %v vs default %v", r.BestResult.Time, def.Time)
	}
}

func TestScaledProxyProposerVerifiesTopCandidates(t *testing.T) {
	proxy := testTarget(12)
	proxy.NoiseStd = 0.001
	sp := NewScaledProxy(proxy, 12)
	p, err := sp.NewProposer(testTarget(13), tune.Budget{Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Propose(10)
	if len(cands) == 0 || len(cands) > 3 {
		t.Fatalf("expected 1..3 verification candidates, got %d", len(cands))
	}
	if r, ok := p.(tune.Recommender); !ok || !r.Recommend().Valid() {
		t.Error("proxy proposer should carry a recommendation")
	}
	if more := p.Propose(10); len(more) != 0 {
		t.Errorf("exhausted proxy proposer proposed %d more", len(more))
	}
}
