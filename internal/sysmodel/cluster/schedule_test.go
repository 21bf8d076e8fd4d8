package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// slotScheduleOracle is the list scheduler as first written — a linear scan
// for the lowest-numbered idle slot, per task — kept as the definition
// ListSchedule must reproduce.
func slotScheduleOracle(durations []float64, nSlots int, start float64) (completions []float64, makespan float64) {
	if nSlots < 1 {
		nSlots = 1
	}
	avail := make([]float64, nSlots)
	for i := range avail {
		avail[i] = start
	}
	completions = make([]float64, len(durations))
	for t, d := range durations {
		bi := 0
		for i := 1; i < nSlots; i++ {
			if avail[i] < avail[bi] {
				bi = i
			}
		}
		avail[bi] += d
		completions[t] = avail[bi]
		if avail[bi] > makespan {
			makespan = avail[bi]
		}
	}
	return completions, makespan
}

// taskDurations draws n durations of one of the shapes a stage can have:
// ties-heavy (a few distinct values repeated, with log-normal ones mixed in),
// all equal, all zero, or zeros among log-normal ones — so equally idle slots
// are the common case rather than the never case.
func taskDurations(r *rand.Rand, n int) []float64 {
	ds := make([]float64, n)
	switch kind := r.Intn(4); kind {
	case 0:
		distinct := 1 + r.Intn(n)
		for i := range ds {
			ds[i] = float64(1+r.Intn(distinct)) * 0.25
			if r.Intn(4) == 0 {
				ds[i] = math.Exp(r.NormFloat64())
			}
		}
	case 1:
		d := math.Exp(r.NormFloat64())
		for i := range ds {
			ds[i] = d
		}
	case 2:
		// all zero
	default:
		for i := range ds {
			if r.Intn(3) != 0 {
				ds[i] = math.Exp(r.NormFloat64())
			}
		}
	}
	return ds
}

// TestListScheduleMatchesLinearScan runs the scheduler at the shapes the
// simulators drive — 1…4 096 tasks on −1…128 slots, a quarter of them with no
// more tasks than slots — from a zero or positive start, and wants every
// completion and the makespan bit for bit as the linear scan gives them.
func TestListScheduleMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		slots := r.Intn(130) - 1 // -1 and 0 mean one slot
		n := 1 + r.Intn(4096)
		if r.Intn(4) == 0 {
			n = 1 + r.Intn(max(slots, 1))
		}
		ds := taskDurations(r, n)
		start := 0.0
		if r.Intn(2) == 0 {
			start = 100 * r.Float64()
		}
		wantC, want := slotScheduleOracle(ds, slots, start)
		gotC := make([]float64, n)
		if got := ListSchedule(ds, slots, start, gotC); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d tasks on %d slots from %v: makespan %v, linear scan %v", n, slots, start, got, want)
		}
		for i := range wantC {
			if math.Float64bits(gotC[i]) != math.Float64bits(wantC[i]) {
				t.Fatalf("%d tasks on %d slots from %v: task %d completes at %v, linear scan %v", n, slots, start, i, gotC[i], wantC[i])
			}
		}
		if got := ListSchedule(ds, slots, start, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d tasks on %d slots from %v: makespan without completions %v, linear scan %v", n, slots, start, got, want)
		}
	}
}

// sortedAtBySort is SortedAt as first written: sort a copy, index it.
func sortedAtBySort(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k]
}

// TestSortedAtMatchesSort selects every index of 1…400 durations, NaNs now
// and then among them, and wants the element sorting leaves there.
func TestSortedAtMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		ds := taskDurations(r, 1+r.Intn(400))
		if r.Intn(8) == 0 {
			ds[r.Intn(len(ds))] = math.NaN()
		}
		k := r.Intn(len(ds))
		switch r.Intn(10) {
		case 0:
			k = 0
		case 1:
			k = len(ds) - 1
		case 2:
			k = len(ds) / 2
		}
		want := sortedAtBySort(ds, k)
		got := SortedAt(append([]float64(nil), ds...), k)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("n=%d k=%d: selected %v, sorted %v", len(ds), k, got, want)
		}
	}
}

// BenchmarkListSchedule times one stage at the shapes simulated Spark stages
// take in fleet sessions: tasks at the median (235), the 90th percentile
// (2 167) and the maximum (4 094), on the median (96) and maximum (128) slot
// counts. Each shape runs with two kinds of durations: i.i.d. log-normal
// ones, and a Spark stage's — θ = 0.7 Zipf shares plus a per-task overhead,
// times an exp(N(0, 0.1)) straggler factor — whose new idle times land where
// a real stage's do. Like the simulator's, every stage draws fresh noise: an
// iteration schedules the next of 32 stages drawn alike, so the branch
// predictor cannot learn one stage's comparisons by heart.
func BenchmarkListSchedule(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const stages = 32
	for _, tasks := range []int{235, 2167, 4094} {
		shares := workload.ZipfShares(tasks, 0.7)
		iid, zipf := make([][]float64, stages), make([][]float64, stages)
		for s := range stages {
			iid[s], zipf[s] = make([]float64, tasks), make([]float64, tasks)
			for i := range tasks {
				iid[s][i] = math.Exp(r.NormFloat64() * 0.5)
				zipf[s][i] = (float64(tasks)*shares[i] + 0.01) * math.Exp(r.NormFloat64()*0.1)
			}
		}
		for _, slots := range []int{96, 128} {
			for _, shape := range []struct {
				name string
				ds   [][]float64
			}{{"iid", iid}, {"zipf", zipf}} {
				b.Run(fmt.Sprintf("tasks=%d/slots=%d/%s", tasks, slots, shape.name), func(b *testing.B) {
					for i := 0; b.Loop(); i++ {
						ListSchedule(shape.ds[i%stages], slots, 0, nil)
					}
				})
			}
		}
	}
}
