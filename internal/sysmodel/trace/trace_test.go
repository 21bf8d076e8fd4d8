package trace

import (
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{Ops: []Op{{
		CPUSeconds:       100,
		SeqReadMB:        2000,
		RandReadMB:       200,
		WriteMB:          100,
		TempMB:           500,
		OperatorMB:       256,
		CaptureWorkMemMB: 4,
		FixedSeconds:     3,
		CacheableMB:      2200,
	}}, Concurrency: 8}
}

func baseResources() Resources {
	return Resources{
		Cores: 8, ClockGHz: 2.4,
		SeqMBps: 200, RandMBps: 20, WriteMBps: 160,
		CacheMB: 100, CacheExponent: 0.7, WorkMemMB: 4,
	}
}

func TestReplayCacheMonotone(t *testing.T) {
	tr := sampleTrace()
	small := baseResources()
	big := baseResources()
	big.CacheMB = 2000
	ts, tb := Replay(tr, small), Replay(tr, big)
	if tb >= ts {
		t.Errorf("more cache should predict faster: %v vs %v", ts, tb)
	}
}

func TestReplayWorkMemReducesSpill(t *testing.T) {
	tr := sampleTrace()
	tight := baseResources()
	roomy := baseResources()
	roomy.WorkMemMB = 512 // operator fits: spill should vanish
	tt, tr2 := Replay(tr, tight), Replay(tr, roomy)
	if tr2 >= tt {
		t.Errorf("larger work memory should predict faster: %v vs %v", tt, tr2)
	}
}

func TestReplayCarriesFixedSeconds(t *testing.T) {
	tr := sampleTrace()
	fast := baseResources()
	fast.SeqMBps, fast.RandMBps, fast.WriteMBps = 1e9, 1e9, 1e9
	fast.ClockGHz, fast.Cores = 1e3, 1e3
	fast.CacheMB = 1e9
	if got := Replay(tr, fast); got < 3 {
		t.Errorf("fixed seconds must survive infinite resources: %v", got)
	}
}

func TestTotalsAggregation(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{CPUSeconds: 1, SeqReadMB: 10, OperatorMB: 5, CaptureWorkMemMB: 2},
		{CPUSeconds: 2, SeqReadMB: 20, OperatorMB: 9, CaptureWorkMemMB: 4},
	}}
	tot := tr.Totals()
	if tot.CPUSeconds != 3 || tot.SeqReadMB != 30 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.OperatorMB != 9 || tot.CaptureWorkMemMB != 4 {
		t.Error("operator fields should take maxima")
	}
}

func TestPassesBoundary(t *testing.T) {
	if passes(100, 200) != 0 {
		t.Error("fitting operator needs no passes")
	}
	if passes(1000, 4) < 1 {
		t.Error("undersized memory needs at least one pass")
	}
	if passes(1000, 4) <= passes(1000, 64) && passes(1000, 64) != passes(1000, 4) {
		// more memory, never more passes
		t.Errorf("passes not monotone: %v vs %v", passes(1000, 4), passes(1000, 64))
	}
}
