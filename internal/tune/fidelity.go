package tune

import (
	"context"
	"math"
	"sort"
)

// Multi-fidelity tuning: evaluate many configurations cheaply at low
// fidelity (a sampled workload, an input fraction, a trace prefix) and spend
// full-cost runs only on the survivors. This file holds the fidelity ladder
// and the successive-halving/Hyperband rung schedule — pure arithmetic,
// deterministic in its inputs — plus the interfaces targets and tuners
// implement. The bracket tuner itself lives in multifidelity.go; the drive
// loop every schedule runs through lives in drive.go.

// The fidelity ladder is fidelityMin, fidelityMin·fidelityEta, …, 1 — that
// is 1/9 → 1/3 → 1 — and each rung promotes roughly the best 1/fidelityEta
// of its members to the next.
const (
	fidelityMin = 1.0 / 9
	fidelityEta = 3
)

// fidelityLevels returns the fidelity ladder in increasing order. The top
// level is always exactly 1 (full fidelity).
func fidelityLevels() []float64 {
	var out []float64
	// The 1e-9 slack keeps float drift (e.g. (1/9)·3·3 ≠ 1 exactly) from
	// minting a spurious near-1 level below the true top.
	for v := fidelityMin; v < 1-1e-9; v *= fidelityEta {
		out = append(out, v)
	}
	return append(out, 1)
}

// Rung is one level of a successive-halving bracket: Width configurations
// evaluated at Fidelity.
type Rung struct {
	Fidelity float64 `json:"fidelity"`
	Width    int     `json:"width"`
}

// Bracket is one successive-halving schedule: rung i+1 re-evaluates the best
// Rungs[i+1].Width members of rung i at the next fidelity. Widths are
// non-increasing and fidelities strictly increasing along a bracket.
type Bracket struct {
	Rungs []Rung `json:"rungs"`
}

// Trials returns the total number of evaluations the bracket performs.
func (b Bracket) Trials() int {
	n := 0
	for _, r := range b.Rungs {
		n += r.Width
	}
	return n
}

// bracketFrom builds the successive-halving bracket that starts n
// configurations at levels[start]: rung i runs floor(n/η^i) configurations
// at levels[start+i], clamped to at least one — a bracket always carries
// its best survivor all the way to full fidelity, even when the rounded
// base width would halve to zero before the ladder tops out.
func bracketFrom(levels []float64, start, n int) Bracket {
	rungs := make([]Rung, 0, len(levels)-start)
	for i := 0; start+i < len(levels); i++ {
		w := int(float64(n) / math.Pow(fidelityEta, float64(i)))
		if w < 1 {
			w = 1
		}
		rungs = append(rungs, Rung{Fidelity: levels[start+i], Width: w})
	}
	return Bracket{Rungs: rungs}
}

// HalvingBracket returns the single most exploratory successive-halving
// bracket: η^(levels-1) configurations starting at the lowest fidelity,
// halved by η per rung up to full fidelity.
func HalvingBracket() Bracket {
	levels := fidelityLevels()
	n := int(math.Round(math.Pow(fidelityEta, float64(len(levels)-1))))
	return bracketFrom(levels, 0, n)
}

// hyperbandSweep returns one full Hyperband sweep: brackets from most
// exploratory (all rungs, widest base) to a single full-fidelity rung,
// trading off aggressive early-stopping against the risk that low fidelity
// misleads (see DESIGN.md §11).
func hyperbandSweep() []Bracket {
	levels := fidelityLevels()
	smax := len(levels) - 1
	out := make([]Bracket, 0, smax+1)
	for s := smax; s >= 0; s-- {
		n := int(math.Ceil(float64(smax+1) / float64(s+1) * math.Pow(fidelityEta, float64(s))))
		out = append(out, bracketFrom(levels, smax-s, n))
	}
	return out
}

// Fidelity strategies accepted by Schedule and NewMultiFidelity.
const (
	// StrategyHyperband cycles full Hyperband sweeps.
	StrategyHyperband = "hyperband"
	// StrategyHalving repeats the single most exploratory bracket.
	StrategyHalving = "halving"
)

// Schedule returns the bracket sequence a multi-fidelity session runs under
// a budget of trials evaluations: whole sweeps (or halving brackets) are
// appended while they fit, and the first bracket that does not fit is
// clipped rung by rung so the schedule never exceeds the declared budget.
// A clipped bracket that would end below full fidelity reserves one of its
// trials as a width-1 full-fidelity top rung — its best screen is promoted
// to a complete run — so every schedule produces at least one result
// capable of holding the incumbent, however small the budget.
func Schedule(strategy string, trials int) []Bracket {
	if trials <= 0 {
		return nil
	}
	var out []Bracket
	remaining := trials
	for remaining > 0 {
		var sweep []Bracket
		if strategy == StrategyHalving {
			sweep = []Bracket{HalvingBracket()}
		} else {
			sweep = hyperbandSweep()
		}
		for _, br := range sweep {
			if remaining <= 0 {
				break
			}
			if t := br.Trials(); t <= remaining {
				out = append(out, br)
				remaining -= t
				continue
			}
			out = append(out, clipBracket(br, remaining))
			remaining = 0
		}
	}
	return out
}

// clipBracket truncates br to exactly budget trials, keeping a full-
// fidelity top rung: if the truncation would drop every fidelity-1 rung,
// the last trial is spent as a width-1 rung at fidelity 1 instead.
func clipBracket(br Bracket, budget int) Bracket {
	screens := budget
	reserveTop := true
	// Walk what plain clipping would keep; if it already reaches a
	// fidelity-1 rung no reservation is needed.
	left := budget
	for _, r := range br.Rungs {
		if left <= 0 {
			break
		}
		if r.Fidelity >= 1 {
			reserveTop = false
			break
		}
		left -= min(r.Width, left)
	}
	if reserveTop {
		screens = budget - 1
	}
	var clipped []Rung
	for _, r := range br.Rungs {
		if screens <= 0 {
			break
		}
		w := min(r.Width, screens)
		clipped = append(clipped, Rung{Fidelity: r.Fidelity, Width: w})
		screens -= w
	}
	if reserveTop {
		clipped = append(clipped, Rung{Fidelity: 1, Width: 1})
	}
	return Bracket{Rungs: clipped}
}

// MinFidelity is the smallest workload fraction a target evaluates: the
// floor of ClampFidelity, so every system interprets a tiny fraction alike.
const MinFidelity = 0.001

// ClampFidelity bounds a fidelity fraction to [MinFidelity, 1], mapping
// non-positive, NaN, and >1 inputs to 1 (full fidelity). FidelityTarget
// implementations use it so every system interprets out-of-contract
// fractions identically.
func ClampFidelity(f float64) float64 {
	if !(f > 0) || f > 1 {
		return 1
	}
	if f < MinFidelity {
		return MinFidelity
	}
	return f
}

// Candidate pairs a configuration with the fidelity to evaluate it at.
type Candidate struct {
	Config   Config
	Fidelity float64
}

// FidelityTarget is a Target with a cheaper, lower-fidelity evaluation path:
// a sampled workload for a DBMS, an input fraction for Spark/MapReduce, a
// trace prefix for replay-based prediction.
//
// Contract:
//   - RunFidelity(ctx, 1, cfg) is equivalent to Run(cfg): full fidelity is
//     the plain path.
//   - Monotone cost: the expected Result.Time (the evaluation's cost) is
//     non-decreasing in f. Low fidelity is cheap by construction, which is
//     what makes rung-based early-stopping pay.
//   - Cancellation: RunFidelity must return promptly once ctx is done
//     (returning a failed Result is fine). The engine cancels superfluous
//     low-rung evaluations once a rung's promotion set is decided; a target
//     that ignores ctx merely wastes the cancelled work, but a target that
//     blocks forever would wedge its worker.
type FidelityTarget interface {
	Target
	// RunFidelity executes fraction f ∈ (0, 1] of the workload under cfg.
	RunFidelity(ctx context.Context, f float64, cfg Config) Result
}

// ConcurrentFidelityTarget extends FidelityTarget with index-keyed noise for
// deterministic parallel evaluation, mirroring ConcurrentTarget: the engine
// reserves run indices in proposal order and RunIndexedFidelity must be
// deterministic in (seed, i, f, cfg) and safe for concurrent use.
type ConcurrentFidelityTarget interface {
	FidelityTarget
	ConcurrentTarget
	RunIndexedFidelity(ctx context.Context, i int64, f float64, cfg Config) Result
}

// FidelityProposer is the ask/tell face of a multi-fidelity schedule. It is
// driven like a Proposer — propose, evaluate, observe in proposal order —
// but candidates carry fidelities, and the proposer reports which recorded
// trials a rung decision early-stopped.
//
// The contract extends Proposer's: ObserveFidelity is called exactly once
// per evaluated candidate, in proposal order; PruneNotices is drained after
// every observation and returns trial numbers in ascending order, so the
// TrialPruned event stream is identical at any evaluation parallelism.
type FidelityProposer interface {
	// ProposeFidelity returns up to n candidates to evaluate next. An empty
	// slice means the schedule is exhausted (or the proposer is waiting on
	// observations it has already handed out).
	ProposeFidelity(n int) []Candidate
	// ObserveFidelity reports one evaluated candidate back, in proposal
	// order.
	ObserveFidelity(Trial)
	// PruneNotices drains the trial numbers early-stopped since the last
	// call, ascending.
	PruneNotices() []int
}

// FidelityBatchTuner is a Tuner whose search runs a fidelity schedule. The
// engine prefers this interface over BatchTuner when the target supports
// fidelity-aware evaluation.
type FidelityBatchTuner interface {
	Tuner
	// NewFidelityProposer starts one session's fidelity proposer for target
	// under b. It errors descriptively when target lacks a fidelity path.
	NewFidelityProposer(t Target, b Budget) (FidelityProposer, error)
}

// sortByObjective orders member indices by objective ascending with a
// stable, seed-threaded tie-break, so rung promotion is deterministic at
// any evaluation parallelism even when objectives collide exactly.
func sortByObjective(objs []float64, trialNs []int, seed int64) []int {
	order := make([]int, len(objs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if objs[ia] != objs[ib] {
			return objs[ia] < objs[ib]
		}
		ma, mb := tieMix(seed, trialNs[ia]), tieMix(seed, trialNs[ib])
		if ma != mb {
			return ma < mb
		}
		return trialNs[ia] < trialNs[ib]
	})
	return order
}

// tieMix hashes (seed, trial) into a deterministic tie-break key
// (splitmix64-style finalizer).
func tieMix(seed int64, n int) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(n)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x
}
