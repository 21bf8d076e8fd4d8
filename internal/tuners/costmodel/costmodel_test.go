package costmodel

import (
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/sysmodel/spark"
	"repro/internal/tune"
	"repro/internal/workload"
)

func TestStarfishPredictMonotoneInReducers(t *testing.T) {
	cl := cluster.Commodity(8)
	job := workload.TeraSort(10)
	space := mapreduce.Space(cl)
	base := space.Default().With(mapreduce.JVMHeapMB, 1024.0)
	one := Predict(job, cl, base.With(mapreduce.ReduceTasks, 1))
	many := Predict(job, cl, base.With(mapreduce.ReduceTasks, 32))
	if many >= one {
		t.Errorf("model should predict parallel reduce wins: %v vs %v", many, one)
	}
}

func TestStarfishPredictInfeasibleIsInf(t *testing.T) {
	cl := cluster.Commodity(8)
	job := workload.TeraSort(10)
	space := mapreduce.Space(cl)
	bad := space.Default().With(mapreduce.IOSortMB, 1000.0).With(mapreduce.JVMHeapMB, 300.0)
	if v := Predict(job, cl, bad); !isInf(v) {
		t.Errorf("OOM config should predict +Inf, got %v", v)
	}
}

func isInf(v float64) bool { return v > 1e300 }

func TestSTMMRespondsToWorkloadShape(t *testing.T) {
	// STMM's split should shift toward the buffer pool for point-read
	// workloads and toward work memory for sort/join-heavy ones.
	d := dbms.New(cluster.CommodityNode(), workload.TPCHLike(8), 1)
	point := NewSTMM().recommend(shaped{d, map[string]float64{"data_gb": 8, "clients": 8}})
	sorts := NewSTMM().recommend(shaped{d, map[string]float64{"data_gb": 8, "clients": 8, "sort_frac": 0.5, "join_frac": 0.5}})
	if point.Float(dbms.BufferPoolMB) <= sorts.Float(dbms.BufferPoolMB) {
		t.Errorf("buffer pool: point reads %v MB, sorts %v MB; want more for point reads",
			point.Float(dbms.BufferPoolMB), sorts.Float(dbms.BufferPoolMB))
	}
	if point.Float(dbms.WorkMemMB) >= sorts.Float(dbms.WorkMemMB) {
		t.Errorf("work memory: point reads %v MB, sorts %v MB; want more for sorts",
			point.Float(dbms.WorkMemMB), sorts.Float(dbms.WorkMemMB))
	}
}

// shaped is a DBMS target with the given workload features.
type shaped struct {
	*dbms.DBMS
	features map[string]float64
}

func (s shaped) WorkloadFeatures() map[string]float64 { return s.features }

func TestErnestFeatureBasis(t *testing.T) {
	f := ernestFeatures(4)
	if len(f) != 4 || f[0] != 1 || f[1] != 0.25 {
		t.Errorf("features = %v", f)
	}
	if f[3] != 4 {
		t.Error("linear term wrong")
	}
}

func TestErnestRequiresBudget(t *testing.T) {
	cl := cluster.Commodity(4)
	sp := sparkTargetFor(cl)
	if _, err := NewErnest().NewProposer(sp, tune.Budget{Trials: 2}); err == nil {
		t.Error("tiny budget should error")
	}
}

// sparkTargetFor builds a tiny Spark target for budget-error checks.
func sparkTargetFor(cl *cluster.Cluster) tune.Target {
	return spark.New(cl, workload.WordCountSpark(1), 1)
}
