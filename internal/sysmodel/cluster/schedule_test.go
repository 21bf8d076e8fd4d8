package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// BenchmarkListSchedule times one stage at the shapes simulated Spark stages
// take in fleet sessions: tasks at the median (235), the 90th percentile
// (2 167) and the maximum (4 094), on the median (96) and maximum (128) slot
// counts.
func BenchmarkListSchedule(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, tasks := range []int{235, 2167, 4094} {
		ds := make([]float64, tasks)
		for i := range ds {
			ds[i] = math.Exp(r.NormFloat64() * 0.5)
		}
		for _, slots := range []int{96, 128} {
			b.Run(fmt.Sprintf("tasks=%d/slots=%d", tasks, slots), func(b *testing.B) {
				for b.Loop() {
					ListSchedule(ds, slots, 0, nil)
				}
			})
		}
	}
}
