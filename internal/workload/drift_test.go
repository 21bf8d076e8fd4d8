package workload

import (
	"sync/atomic"
	"testing"

	"repro/internal/tune"
)

// phaseTarget is a stationary target whose every run returns a
// fixed time, so tests can read which phase served an index off the Result.
type phaseTarget struct {
	name  string
	space *tune.Space
	time  float64
	runs  atomic.Int64
}

func (p *phaseTarget) Name() string       { return p.name }
func (p *phaseTarget) Space() *tune.Space { return p.space }
func (p *phaseTarget) ReserveRuns(n int64) int64 {
	return p.runs.Add(n) - n + 1
}
func (p *phaseTarget) Run(cfg tune.Config) tune.Result {
	return p.RunIndexed(p.ReserveRuns(1), cfg)
}
func (p *phaseTarget) RunIndexed(_ int64, _ tune.Config) tune.Result {
	return tune.Result{Time: p.time, Fidelity: 1}
}
func (p *phaseTarget) WorkloadFeatures() map[string]float64 {
	return map[string]float64{"time": p.time}
}
func (p *phaseTarget) Specs() map[string]float64 {
	return map[string]float64{"ram_mb": 1024}
}

func driftTestSpace() *tune.Space {
	return tune.NewSpace(tune.Float("a", 0, 1, 0.5))
}

func mkPhase(name string, time float64, runs int64, space *tune.Space) Phase {
	return Phase{Name: name, Target: &phaseTarget{name: "sys/" + name, space: space, time: time}, Runs: runs}
}

func TestNewDriftValidates(t *testing.T) {
	space := driftTestSpace()
	if _, err := NewDrift("x", false, mkPhase("solo", 1, 3, space)); err == nil {
		t.Error("single-phase drift accepted")
	}
	bad := mkPhase("bad", 1, 0, space)
	if _, err := NewDrift("x", false, mkPhase("a", 1, 3, space), bad); err == nil {
		t.Error("non-positive phase length accepted")
	}
	other := tune.NewSpace(tune.Float("b", 0, 1, 0.5))
	if _, err := NewDrift("x", false, mkPhase("a", 1, 3, space), mkPhase("b", 2, 3, other)); err == nil {
		t.Error("mismatched configuration spaces accepted")
	}
}

// TestDriftShiftHoldsLastPhase: without cycling, indices walk the phases
// once and the final phase owns every index past the schedule.
func TestDriftShiftHoldsLastPhase(t *testing.T) {
	space := driftTestSpace()
	d, err := NewDrift("shift", false, mkPhase("one", 1, 2, space), mkPhase("two", 2, 3, space))
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Default()
	want := []float64{1, 1, 2, 2, 2, 2, 2, 2} // indices 1..8
	for i, w := range want {
		if got := d.RunIndexed(int64(i+1), cfg).Time; got != w {
			t.Errorf("index %d ran phase with time %v, want %v", i+1, got, w)
		}
	}
}

// TestDriftCycleRepeats: with cycling, the schedule wraps modulo its period.
func TestDriftCycleRepeats(t *testing.T) {
	space := driftTestSpace()
	d, err := NewDrift("diurnal", true, mkPhase("low", 1, 2, space), mkPhase("high", 2, 2, space))
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Default()
	want := []float64{1, 1, 2, 2, 1, 1, 2, 2, 1} // period 4
	for i, w := range want {
		if got := d.RunIndexed(int64(i+1), cfg).Time; got != w {
			t.Errorf("index %d ran phase with time %v, want %v", i+1, got, w)
		}
	}
	// Out-of-range index clamps rather than panics.
	if got := d.RunIndexed(0, cfg).Time; got != 1 {
		t.Errorf("index 0 ran phase with time %v, want the opening phase", got)
	}
}

// TestDriftNameAndDelegation: the target groups under the phase-0 system
// name, serves phase-0 features and specs, and hands out global indices.
func TestDriftNameAndDelegation(t *testing.T) {
	space := driftTestSpace()
	d, err := NewDrift("oltp-olap-shift", false, mkPhase("oltp", 1, 2, space), mkPhase("olap", 2, 2, space))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Name(); got != "sys/oltp-olap-shift" {
		t.Errorf("name = %q, want the phase-0 system prefix + drift name", got)
	}
	if got := d.WorkloadFeatures()["time"]; got != 1 {
		t.Errorf("features came from time-%v phase, want the opening phase", got)
	}
	if got := d.Specs()["ram_mb"]; got != 1024 {
		t.Errorf("specs = %v, want the phase-0 target's", got)
	}
	// ReserveRuns claims contiguous global indices across phase boundaries.
	if first := d.ReserveRuns(3); first != 1 {
		t.Fatalf("first reservation starts at %d, want 1", first)
	}
	if next := d.ReserveRuns(1); next != 4 {
		t.Errorf("second reservation starts at %d, want 4", next)
	}
	// Run draws the next global index: reservation 5 lands in the held phase.
	if got := d.Run(space.Default()).Time; got != 2 {
		t.Errorf("Run after 4 reservations hit phase time %v, want the olap phase", got)
	}
}
