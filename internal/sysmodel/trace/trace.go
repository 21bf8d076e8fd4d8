// Package trace provides resource-demand trace recording and replay — the
// substrate of simulation-based tuning in the style of Narayanan et al.
// (continuous resource monitoring for a self-predicting DBMS). A Trace is a
// sequence of resource demands captured from an instrumented run; Replay
// predicts the runtime of the same work under a hypothetical resource model
// (different cache hit ratios, device speeds, concurrency) without touching
// the real system.
package trace

import (
	"math"
)

// Op is one traced operation's resource demand.
type Op struct {
	// CPUSeconds at 1 GHz.
	CPUSeconds float64
	// SeqReadMB, RandReadMB, WriteMB are I/O demands.
	SeqReadMB  float64
	RandReadMB float64
	WriteMB    float64
	// TempMB is spill I/O observed at capture time; replay rescales it for
	// hypothetical working-memory sizes via OperatorMB/CaptureWorkMemMB.
	TempMB float64
	// OperatorMB is the characteristic sort/hash input size and
	// CaptureWorkMemMB the working memory in force during capture.
	OperatorMB       float64
	CaptureWorkMemMB float64
	// FixedSeconds is time the resource model cannot re-attribute
	// (lock waits, commit stalls) and carries over unchanged.
	FixedSeconds float64
	// CacheableMB of the read demand can be served from cache.
	CacheableMB float64
	// Parallel marks operator work that scales across cores.
	Parallel bool
}

// Trace is an ordered capture of operation demands plus aggregate counters.
type Trace struct {
	Ops []Op
	// Concurrency is the client parallelism observed during capture.
	Concurrency float64
}

// Totals sums the demands across the trace.
func (t *Trace) Totals() Op {
	var sum Op
	for _, o := range t.Ops {
		sum.CPUSeconds += o.CPUSeconds
		sum.SeqReadMB += o.SeqReadMB
		sum.RandReadMB += o.RandReadMB
		sum.WriteMB += o.WriteMB
		sum.TempMB += o.TempMB
		sum.FixedSeconds += o.FixedSeconds
		sum.CacheableMB += o.CacheableMB
		if o.OperatorMB > sum.OperatorMB {
			sum.OperatorMB = o.OperatorMB
		}
		if o.CaptureWorkMemMB > sum.CaptureWorkMemMB {
			sum.CaptureWorkMemMB = o.CaptureWorkMemMB
		}
	}
	return sum
}

// Resources describes the hypothetical machine a trace is replayed against.
type Resources struct {
	Cores     float64
	ClockGHz  float64
	SeqMBps   float64
	RandMBps  float64
	WriteMBps float64
	// CacheMB is the buffer cache available to absorb cacheable reads.
	CacheMB float64
	// CacheExponent shapes the hit curve (1 = linear, <1 = concave/skewed).
	CacheExponent float64
	// WorkMemMB is the hypothetical per-operator working memory; spill I/O
	// scales with the merge passes it implies.
	WorkMemMB float64
}

// Replay predicts the elapsed seconds of executing the trace on r. The
// model overlaps CPU and I/O the way the DBMS simulator does, so a replayed
// prediction tracks the simulator closely when the resource description is
// accurate — and degrades, like real trace-based predictors, when workload
// behaviour shifts from what was captured.
func Replay(t *Trace, r Resources) float64 {
	tot := t.Totals()
	hit := 0.0
	if tot.CacheableMB > 0 {
		frac := math.Min(1, r.CacheMB/tot.CacheableMB)
		exp := r.CacheExponent
		if exp <= 0 {
			exp = 1
		}
		hit = math.Pow(frac, exp)
	}
	seq := tot.SeqReadMB * (1 - hit)
	randR := tot.RandReadMB * (1 - hit)
	// Spill I/O scales with the external merge passes the hypothetical
	// working memory implies relative to capture time.
	temp := tot.TempMB
	if temp > 0 && r.WorkMemMB > 0 && tot.CaptureWorkMemMB > 0 && tot.OperatorMB > 0 {
		temp *= passes(tot.OperatorMB, r.WorkMemMB) / math.Max(passes(tot.OperatorMB, tot.CaptureWorkMemMB), 1e-9)
	}
	cpu := tot.CPUSeconds / (r.ClockGHz * math.Max(1, r.Cores))
	io := seq/r.SeqMBps + randR/r.RandMBps + (tot.WriteMB+temp)/r.WriteMBps
	return math.Max(cpu, io) + 0.25*math.Min(cpu, io) + tot.FixedSeconds
}

// passes estimates external merge passes for an operator of size opMB under
// wm MB of working memory (0 when it fits).
func passes(opMB, wm float64) float64 {
	if wm >= opMB {
		return 0
	}
	fanout := math.Max(4, math.Min(64, wm))
	return math.Ceil(math.Log(opMB/wm) / math.Log(fanout))
}
