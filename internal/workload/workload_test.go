package workload

import (
	"math"
	"sync"
	"testing"
)

func TestDBWorkloadAccessors(t *testing.T) {
	w := TPCHLike(10)
	if w.Table("lineitem").SizeMB <= 0 {
		t.Error("lineitem missing")
	}
	if w.TotalWeight() <= 0 {
		t.Error("weights missing")
	}
	if w.WriteFraction() != 0 {
		t.Error("tpch should be read-only")
	}
	if f := OLTP(32, 2).WriteFraction(); f <= 0 || f >= 1 {
		t.Errorf("oltp write fraction = %v", f)
	}
}

func TestTablePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TPCHLike(1).Table("ghost")
}

func TestScalesPropagate(t *testing.T) {
	small, big := TPCHLike(1), TPCHLike(10)
	if big.Table("lineitem").SizeMB != 10*small.Table("lineitem").SizeMB {
		t.Error("scaling not linear")
	}
	if Grep(2).InputMB != 2048 {
		t.Error("grep scale wrong")
	}
	if TeraSort(5).MapSelectivity != 1.0 {
		t.Error("terasort must shuffle everything")
	}
}

func TestMRJobShapes(t *testing.T) {
	if WordCount(1).CombinerGain <= 0 {
		t.Error("wordcount must be reducible")
	}
	if Grep(1).MapSelectivity >= 0.01 {
		t.Error("grep must be highly selective")
	}
	if JoinMR(1).SkewTheta <= 0 {
		t.Error("join should be skewed")
	}
}

func TestSparkJobShapes(t *testing.T) {
	pr := PageRank(2, 5)
	if pr.Iterations != 5 || pr.CacheableMB <= 0 {
		t.Errorf("pagerank = %+v", pr)
	}
	km := KMeansSpark(2, 10)
	if km.ShuffleMB >= km.CacheableMB {
		t.Error("kmeans should shuffle little relative to its cache")
	}
	st := StreamingAgg(512, 10, 5)
	if !st.Streaming || st.Batches != 10 || st.BatchIntervalS != 5 {
		t.Errorf("streaming = %+v", st)
	}
	sd := StreamingDrift(512, 10, 5, 0.1)
	if sd.DriftPerBatch != 0.1 {
		t.Error("drift lost")
	}
}

func TestQueryKindString(t *testing.T) {
	kinds := map[QueryKind]string{
		PointRead: "point", Update: "update", RangeScan: "scan",
		SortQuery: "sort", Join: "join", Aggregate: "agg",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
	if QueryKind(99).String() != "unknown" {
		t.Error("unknown kind string wrong")
	}
}

// zipfSharesFormula is ZipfShares as first written, one math.Pow per share,
// kept as the definition the share table must reproduce.
func zipfSharesFormula(n int, theta float64) []float64 {
	shares := make([]float64, n)
	var h float64
	for i := 1; i <= n; i++ {
		shares[i-1] = 1 / math.Pow(float64(i), theta)
		h += shares[i-1]
	}
	for i := range shares {
		shares[i] /= h
	}
	return shares
}

// builtinSkews returns every θ a builtin Spark or MapReduce job splits its
// data by: each job's SkewTheta, and for a Spark job its AQE half too.
func builtinSkews() []float64 {
	seen := map[float64]bool{}
	var thetas []float64
	add := func(theta float64) {
		if !seen[theta] {
			seen[theta] = true
			thetas = append(thetas, theta)
		}
	}
	for _, j := range []*SparkJob{WordCountSpark(1), TeraSortSpark(1), PageRank(1, 1), KMeansSpark(1, 1), StreamingAgg(1, 1, 1), StreamingDrift(1, 1, 1, 0.1)} {
		skew := j.SkewTheta
		add(skew)
		skew *= 0.5
		add(skew)
	}
	for _, j := range []*MRJob{Grep(1), Aggregation(1), JoinMR(1), WordCount(1), TeraSort(1)} {
		add(j.SkewTheta)
	}
	return thetas
}

// sameBits reports whether got and want hold the same float64 bits.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// TestZipfSharesMatchFormula wants the shares of every n in 1…zipfTableCap
// bit for bit as the formula gives them, at every builtin θ: odd n from a
// table first used at n = 1, even n from one first used at the largest n.
// Then from a table several goroutines first use at once, and past the cap.
// The sweep over every n carries the formula's running sum from one n to
// the next and takes its math.Pow values once per θ — the same values, added
// in the same order as a fresh call, at a fraction of the cost (this test
// runs under the race detector too) — while the spot checks call the formula.
func TestZipfSharesMatchFormula(t *testing.T) {
	for _, theta := range builtinSkews() {
		var smallFirst, largeFirst, concurrent zipfRegistry
		smallFirst.shares(1, theta)
		largeFirst.shares(zipfTableCap, theta)
		weights := make([]float64, 0, zipfTableCap)
		var h float64
		check := func(order string, got []float64) {
			if len(got) != len(weights) {
				t.Fatalf("θ=%v n=%d, table %s: %d shares", theta, len(weights), order, len(got))
			}
			for i, w := range weights {
				if math.Float64bits(got[i]) != math.Float64bits(w/h) {
					t.Fatalf("θ=%v n=%d, table %s: share %d is %v, formula %v", theta, len(weights), order, i, got[i], w/h)
				}
			}
		}
		for n := 1; n <= zipfTableCap; n++ {
			weights = append(weights, 1/math.Pow(float64(n), theta))
			h += weights[n-1]
			if n%2 == 1 {
				check("first used at n = 1", smallFirst.shares(n, theta))
			} else {
				check("first used at the largest n", largeFirst.shares(n, theta))
			}
		}
		// Each goroutine starts at a different n, so their first uses race.
		var wg sync.WaitGroup
		for g := 1; g <= 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := g; n <= zipfTableCap; n = 2*n + 1 {
					if !sameBits(concurrent.shares(n, theta), zipfSharesFormula(n, theta)) {
						t.Errorf("θ=%v n=%d, table first used concurrently: shares differ from the formula", theta, n)
					}
				}
			}()
		}
		wg.Wait()
		for _, n := range []int{0, 1, 235, zipfTableCap, zipfTableCap + 1, 2*zipfTableCap + 3} {
			if !sameBits(ZipfShares(n, theta), zipfSharesFormula(n, theta)) {
				t.Fatalf("θ=%v n=%d: shares differ from the formula", theta, n)
			}
		}
	}
}

func TestZipfSharesMatchFormulaRace3(t *testing.T) { TestZipfSharesMatchFormula(t) }
