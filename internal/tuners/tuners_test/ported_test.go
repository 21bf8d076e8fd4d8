package tuners_test

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"slices"
	"testing"

	repro "repro"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/sysmodel/spark"
	"repro/internal/tune"
	"repro/internal/workload"
)

// TestEveryTunerUnchanged pins every registered tuner's sessions: each digest
// is of every trial's configuration and result and the final incumbent, over
// 3 targets × seeds 1–4 × 45 trials through repro.Tune, skipping the pairs
// the tuner's Check refuses. rrs, sard, adaptive-sampling and addm carry the
// digests taken at the last commit where each still owned its evaluation loop;
// the rest were taken before their option fields became constants. A tuner
// that drifts by one rng draw, one run, or one incumbent comparison changes its
// digest.
func TestEveryTunerUnchanged(t *testing.T) {
	// Each target with its scaled-proxy replica: the same system and workload
	// at a smaller scale and the derived seed, as Spec.JobWithWarm builds it.
	targets := []struct{ full, proxy func(seed int64) tune.Target }{
		{func(seed int64) tune.Target { return dbmsTarget(seed) },
			func(seed int64) tune.Target {
				return dbms.New(cluster.CommodityNode(), workload.TPCHLike(0.4), seed+1)
			}},
		{func(seed int64) tune.Target { return sparkTarget(seed) },
			func(seed int64) tune.Target {
				return spark.New(cluster.Commodity(8), workload.PageRank(0.2, 4), seed+1)
			}},
		{func(seed int64) tune.Target { return hadoopTarget(seed) },
			func(seed int64) tune.Target {
				return mapreduce.New(cluster.Commodity(8), workload.TeraSort(1), seed+1)
			}},
	}
	rows := []struct {
		name string
		want uint64
	}{
		{"adaptive-sampling", 0x9f4801cc14e76e2e},
		{"addm", 0xb4adaf85a3ed3b7b},
		{"colt", 0xd20a75e2bb00548b},
		{"ernest", 0xdad6bf86514c68c8},
		{"grid", 0xaa7547c58021127d},
		{"ituned", 0x18dc5cd0402edffc},
		{"memory-manager", 0x15dce7cff4e9876f},
		{"navigator", 0xbdb317bdaa4184c},
		{"neural", 0x9510ae4f59bf91f2},
		{"ottertune", 0x740acfe503f89dc0},
		{"partitions", 0xff7a71f598b67dd},
		{"random", 0x774424058036a0fd},
		{"recommender", 0xc21e58fc176f6e8b},
		{"rrs", 0x7799a6fc80e13ae9},
		{"rules", 0xde77e6e0aff28a3f},
		{"sard", 0x2f4c9b1cc8b60ec1},
		{"scaled-proxy", 0xafca1809388a83f4},
		{"starfish", 0xeaee82ca8efc1217},
		{"stmm", 0xe8cc4cd2f884f79d},
		{"trace-whatif", 0x4087f722762efc79},
	}
	var names []string
	for _, row := range rows {
		names = append(names, row.name)
	}
	if !slices.Equal(names, repro.Tuners()) {
		t.Fatalf("digest rows %v, want one per registered tuner %v", names, repro.Tuners())
	}
	b := tune.Budget{Trials: 45}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := fnv.New64a()
			sessions := 0
			for _, tg := range targets {
				for seed := int64(1); seed <= 4; seed++ {
					target := tg.full(seed)
					tuner, err := repro.NewTuner(row.name, repro.TunerOptions{Seed: seed, TargetName: target.Name(), Proxy: tg.proxy(seed)})
					if err != nil {
						t.Fatal(err)
					}
					if tune.CheckTuner(tuner, target, b) != nil {
						continue
					}
					res, err := repro.Tune(context.Background(), target, tuner, b, 1)
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(struct {
						Trials []tune.Trial
						Best   tune.Config
						Sim    float64
					}{res.Trials, res.Best, res.SimTimeUsed})
					if err != nil {
						t.Fatal(err)
					}
					h.Write(data)
					sessions++
				}
			}
			if got := h.Sum64(); got != row.want {
				t.Errorf("digest of %d sessions = %#x, want %#x: a trial changed", sessions, got, row.want)
			}
		})
	}
}
