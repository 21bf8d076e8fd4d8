package paralleldb

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/tune"
	"repro/internal/workload"
)

func TestParallelDBBeatsStockHadoop(t *testing.T) {
	cl := cluster.Commodity(8)
	for _, job := range []*workload.MRJob{workload.Grep(10), workload.Aggregation(10), workload.JoinMR(10)} {
		pdb := New(cl, job, 1)
		h := mapreduce.New(cl, job, 2)
		pt := pdb.Run(pdb.Space().Default()).Time
		ht := h.Run(h.Space().Default()).Time
		if pt >= ht {
			t.Errorf("%s: parallel DB (%v) should beat stock Hadoop (%v)", job.Name, pt, ht)
		}
	}
}

func TestCompressionAndIndexKnobs(t *testing.T) {
	cl := cluster.Commodity(8)
	pdb := New(cl, workload.Grep(20), 3)
	def := pdb.Space().Default()
	// Disabling the index on the selective task must slow the scan.
	withIdx := pdb.Run(def.With(IndexScans, true))
	noIdx := pdb.Run(def.With(IndexScans, false))
	if noIdx.Metrics["scan_mb_per_node"] <= withIdx.Metrics["scan_mb_per_node"] {
		t.Error("index should reduce scanned volume on the selection task")
	}
	// Disabling compression increases the scan volume.
	noComp := pdb.Run(def.With(CompressTables, false))
	if noComp.Metrics["scan_mb_per_node"] <= withIdx.Metrics["scan_mb_per_node"] {
		t.Error("compression should shrink scans")
	}
}

func TestSpecsAndName(t *testing.T) {
	pdb := New(cluster.Commodity(4), workload.JoinMR(5), 4)
	if pdb.Name() != "paralleldb/join" {
		t.Errorf("Name = %q", pdb.Name())
	}
	if pdb.Specs()["nodes"] != 4 {
		t.Error("specs wrong")
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
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		h.Write([]byte(k))
		put(res.Metrics[k])
	}
}

// The simulator's results are part of every recorded event stream, so the
// way runs are keyed may be rewritten but no result may change. The digest
// is of 400 runs through all four entry points over random jobs,
// homogeneous, heterogeneous and shared clusters, seeds, configurations,
// run indices and fidelities (above 1 they clamp to 1); a target serves
// several runs, so the run counter is digested too.
func TestParallelDBResultsUnchanged(t *testing.T) {
	const want = uint64(0x2e0a980a8ed045c8)
	r := rand.New(rand.NewSource(67))
	jobs := []func() *workload.MRJob{
		func() *workload.MRJob { return workload.TeraSort(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.WordCount(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.Grep(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.Aggregation(2 + 8*r.Float64()) },
		func() *workload.MRJob { return workload.JoinMR(2 + 8*r.Float64()) },
	}
	h := fnv.New64a()
	var p *ParallelDB
	for trial := 0; trial < 400; trial++ {
		if p == nil || r.Intn(3) == 0 {
			n := 4 + r.Intn(8)
			cl := cluster.Commodity(n)
			switch r.Intn(3) {
			case 1:
				cl = cluster.Heterogeneous(n)
			case 2:
				cl = cl.MultiTenant(0.3, 0.2)
			}
			p = New(cl, jobs[r.Intn(len(jobs))](), r.Int63n(1000))
		}
		cfg := p.Space().Random(r)
		i, f := 1+r.Int63n(50), 0.05+r.Float64()
		var res tune.Result
		switch r.Intn(4) {
		case 0:
			res = p.Run(cfg)
		case 1:
			res = p.RunIndexed(i, cfg)
		case 2:
			res = p.RunFidelity(context.Background(), f, cfg)
		default:
			res = p.RunIndexedFidelity(context.Background(), i, f, cfg)
		}
		resultDigest(h, res)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest of 400 simulated runs = %#x, want %#x: a result changed", got, want)
	}
}
