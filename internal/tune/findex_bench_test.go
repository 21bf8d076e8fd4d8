package tune

import (
	"math/rand"
	"testing"
)

// benchBases are the workload features of dbms/tpch, oltp and mixed — the
// three vectors the repository benchmark's corpus is jittered from.
var benchBases = []map[string]float64{
	{"clients": 8, "data_gb": 10, "join_frac": 3.0 / 11, "ops_k": 0.04, "point_frac": 0, "scan_frac": 7.0 / 11, "sort_frac": 1.0 / 11, "update_frac": 0},
	{"clients": 64, "data_gb": 4, "join_frac": 0, "ops_k": 20, "point_frac": 0.6, "scan_frac": 0.1, "sort_frac": 0, "update_frac": 0.3},
	{"clients": 16, "data_gb": 6, "join_frac": 0.1, "ops_k": 2, "point_frac": 0.4, "scan_frac": 0.3, "sort_frac": 0, "update_frac": 0.2},
}

// benchCorpus is shaped like the repository benchmark's: the three bases
// first, then n-3 points cycling over them with every value scaled by a
// seeded factor in [0.25, 1) — three clusters, one key list, and no jittered
// value outside the frozen scale the bases set.
func benchCorpus(n int, seed int64) [][]KV {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]KV, n)
	for i := range pts {
		pts[i] = FeatureList(benchBases[i%3])
		if i >= 3 {
			for k := range pts[i] {
				pts[i][k].V *= 0.25 + 0.75*rng.Float64()
			}
		}
	}
	return pts
}

var benchSink int

func BenchmarkFeatureIndexBuild(b *testing.B) {
	pts := benchCorpus(100000, 1)
	b.Run("n=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(NewFeatureIndexKV(pts).nodes)
		}
	})
}

func BenchmarkFeatureIndexNearest(b *testing.B) {
	pts := benchCorpus(100000, 1)
	ix := NewFeatureIndexKV(pts)
	queries := make([]map[string]float64, 256)
	for i, q := range benchCorpus(3+len(queries), 2)[3:] {
		queries[i] = map[string]float64{}
		for _, kv := range q {
			queries[i][kv.K] = kv.V
		}
	}
	b.Run("n=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Walk(queries[i%len(queries)], func(at int, _ float64) bool { benchSink += at; return false })
		}
	})
}
