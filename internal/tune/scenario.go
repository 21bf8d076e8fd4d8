package tune

import "math"

// SessionAware is implemented by proposers that need the live session handle
// beyond the observed trials — the drift detector calls ReAnchor on it when
// it concludes the workload shifted — or that hold something for the
// session's lifetime (Sequential's coroutine). Drive binds the session before
// the first Propose and binds nil when the session ends, on every exit path;
// a wrapper that replaces an inner proposer mid-session unbinds the old one
// the same way. Wrappers that may enclose a session-aware proposer forward
// both.
type SessionAware interface {
	BindSession(*Session)
}

// bindSession hands s to p when p wants it.
func bindSession(p any, s *Session) {
	if sa, ok := p.(SessionAware); ok {
		sa.BindSession(s)
	}
}

// recommend returns p's recommendation when p is a Recommender, else the
// invalid zero Config.
func recommend(p any) Config {
	if r, ok := p.(Recommender); ok {
		return r.Recommend()
	}
	return Config{}
}

// dominates reports strict Pareto dominance of a over b on (objective, cost):
// no worse on both axes and better on at least one. Equal points do not
// dominate each other, so the first of two identical trials keeps its front
// slot — deterministic under the session's trial-order recording.
func dominates(aObj, aCost, bObj, bCost float64) bool {
	if aObj > bObj || aCost > bCost {
		return false
	}
	return aObj < bObj || aCost < bCost
}

// ParetoDominates reports whether trial a strictly dominates trial b on
// (Objective, Cost) — the dominance order the session's front tracking and
// the bench's front scoring share.
func ParetoDominates(a, b Trial) bool {
	return dominates(a.Result.Objective(), a.Result.Cost, b.Result.Objective(), b.Result.Cost)
}

// ParetoFront extracts the non-dominated full-fidelity, non-failed trials
// from a recorded trial sequence, in recording order — the offline
// counterpart of the session's incremental front, used to score runs no
// MultiObjective tracked.
func ParetoFront(trials []Trial) []Trial {
	var front []Trial
	for _, t := range trials {
		if t.Result.Failed || !t.Result.FullFidelity() {
			continue
		}
		front, _ = insertFront(front, t)
	}
	return front
}

// insertFront adds t to front unless a member already weakly dominates it
// (ties keep the earlier trial), evicting the members t strictly dominates.
// Order of survivors is preserved; the second return reports insertion.
func insertFront(front []Trial, t Trial) ([]Trial, bool) {
	tObj, tCost := t.Result.Objective(), t.Result.Cost
	for _, f := range front {
		if f.Result.Objective() <= tObj && f.Result.Cost <= tCost {
			return front, false
		}
	}
	keep := front[:0]
	for _, f := range front {
		if !ParetoDominates(t, f) {
			keep = append(keep, f)
		}
	}
	return append(keep, t), true
}

// Hypervolume returns the area of objective×cost space the front dominates
// below the reference point (refObj, refCost) — the standard two-objective
// front quality score (larger is better). Points outside the reference box
// contribute nothing.
func Hypervolume(front []Trial, refObj, refCost float64) float64 {
	type pt struct{ obj, cost float64 }
	pts := make([]pt, 0, len(front))
	for _, t := range front {
		o, c := t.Result.Objective(), t.Result.Cost
		if o < refObj && c < refCost {
			pts = append(pts, pt{o, c})
		}
	}
	if len(pts) == 0 {
		return 0
	}
	// Sweep objective ascending; each point covers the cost band between its
	// cost and the best (lowest) cost seen so far, out to the reference.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && (pts[j].obj < pts[j-1].obj || (pts[j].obj == pts[j-1].obj && pts[j].cost < pts[j-1].cost)); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	var area, bestCost float64
	bestCost = refCost
	for _, p := range pts {
		if p.cost < bestCost {
			area += (refObj - p.obj) * (bestCost - p.cost)
			bestCost = p.cost
		}
	}
	return area
}

// NormalizedHypervolume scores each front on a shared unit square: both axes
// are scaled to [0, 1] over the union of all the fronts' points, and each
// front's hypervolume is measured against the reference corner (1.01, 1.01).
// Raw hypervolume against a far worst-corner reference is dominated by the
// rectangle every front covers in common — tuning objectives are
// heavy-tailed, so one slow outlier trial pushes the reference out until
// good and mediocre fronts differ only in the trailing digits. Normalizing
// to the union's bounding box makes each score the fraction of the observed
// trade-off rectangle that front dominates, comparable across fronts and
// insensitive to how far away the worst trial happened to land.
func NormalizedHypervolume(fronts ...[]Trial) []float64 {
	minObj, maxObj := math.Inf(1), math.Inf(-1)
	minCost, maxCost := math.Inf(1), math.Inf(-1)
	for _, front := range fronts {
		for _, t := range front {
			o, c := t.Result.Objective(), t.Result.Cost
			minObj, maxObj = math.Min(minObj, o), math.Max(maxObj, o)
			minCost, maxCost = math.Min(minCost, c), math.Max(maxCost, c)
		}
	}
	spanObj, spanCost := maxObj-minObj, maxCost-minCost
	if !(spanObj > 0) {
		spanObj = 1 // degenerate axis: all points share the value, or no points
	}
	if !(spanCost > 0) {
		spanCost = 1
	}
	out := make([]float64, len(fronts))
	for i, front := range fronts {
		scaled := make([]Trial, len(front))
		for j, t := range front {
			scaled[j].Result.Time = (t.Result.Objective() - minObj) / spanObj
			scaled[j].Result.Cost = (t.Result.Cost - minCost) / spanCost
		}
		out[i] = Hypervolume(scaled, 1.01, 1.01)
	}
	return out
}
