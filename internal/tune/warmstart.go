package tune

import (
	"math"
	"sort"
)

// This file generalizes OtterTune's workload-mapping idea into the core so
// any ask/tell tuner can warm-start from a repository of past sessions: map
// the new workload to the nearest past one by normalized feature distance,
// lift that session's best configurations into the new target's space, and
// inject them as the first proposals of an otherwise-unchanged proposer.

// RankSessions returns the indices of sessions ordered nearest-first by
// normalized Euclidean feature distance to features. The max-abs
// normalization vector is computed ONCE over the query and all candidates —
// previously every nearest-lookup retry rebuilt it from scratch, turning a
// warm start over s sessions into O(s²) map traversals in the worst case.
// Each feature key is scaled by the largest absolute value it takes across
// the query and all candidates, so features spanning decades (bytes vs
// ratios) weigh equally. Ties break toward the earlier session, keeping the
// ranking deterministic.
func RankSessions(sessions []SessionRecord, features map[string]float64) []int {
	if len(sessions) == 0 {
		return nil
	}
	scale := map[string]float64{}
	note := func(m map[string]float64) {
		for k, v := range m {
			if a := math.Abs(v); a > scale[k] {
				scale[k] = a
			}
		}
	}
	note(features)
	for _, s := range sessions {
		note(s.Features)
	}
	keys := make([]string, 0, len(scale))
	for k := range scale {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dist := make([]float64, len(sessions))
	for i, s := range sessions {
		var d float64
		for _, k := range keys {
			sc := scale[k]
			if sc == 0 {
				continue
			}
			dd := (features[k] - s.Features[k]) / sc
			d += dd * dd
		}
		dist[i] = d
	}
	order := make([]int, len(sessions))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return dist[order[a]] < dist[order[b]]
	})
	return order
}

// NearestSession returns the index of the session whose feature map is
// nearest features under normalized Euclidean distance, or -1 when sessions
// is empty.
func NearestSession(sessions []SessionRecord, features map[string]float64) int {
	order := RankSessions(sessions, features)
	if len(order) == 0 {
		return -1
	}
	return order[0]
}

// TransferConfigs lifts the k best distinct non-failed trials of rec into
// space, best first. Sessions recorded against a different space (parameter
// names disagree) transfer nothing.
func TransferConfigs(rec SessionRecord, space *Space, k int) []Config {
	if k <= 0 || !sameNames(rec.ParamNames, space.Names()) {
		return nil
	}
	order := make([]int, 0, len(rec.Trials))
	for i, t := range rec.Trials {
		if !t.Failed && t.fullFidelity() && len(t.Vector) == space.Dim() {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rec.Trials[order[a]].Time < rec.Trials[order[b]].Time
	})
	var out []Config
	seen := map[string]struct{}{}
	for _, i := range order {
		cfg := space.FromVector(rec.Trials[i].Vector)
		key := cfg.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, cfg)
		if len(out) == k {
			break
		}
	}
	return out
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WarmConfigs maps the target workload (described by features) to the
// nearest past session of the same system in repo and returns that
// session's k best configurations in space. It returns nil when the
// repository holds nothing transferable — a warm start over an empty
// repository degrades to a cold start, never to an error.
func WarmConfigs(repo *Repository, system string, features map[string]float64, space *Space, k int) []Config {
	sessions, _ := repo.ForSystem(system) // in memory: never fails
	// Prefer the nearest session that actually transfers; the nearest one
	// may have been recorded against an incompatible space. Sessions are
	// ranked once — one normalization pass for the whole lookup batch — and
	// walked nearest-first, with dimension-incompatible sessions skipped
	// before any per-trial work.
	names := space.Names()
	for _, at := range RankSessions(sessions, features) {
		if len(sessions[at].ParamNames) != len(names) {
			continue
		}
		if cfgs := TransferConfigs(sessions[at], space, k); len(cfgs) > 0 {
			return cfgs
		}
	}
	return nil
}

// WarmStarter wraps a Proposer so the transferred seed configurations are
// proposed first; afterwards every ask is delegated to the inner proposer.
// Observations — including those of the seeds — flow through to the inner
// proposer, so a model-based tuner conditions on the transferred evidence
// exactly as if it had proposed those points itself.
type WarmStarter struct {
	inner Proposer
	seeds []Config
}

// NewWarmStarter returns p warm-started with seeds (which may be empty).
func NewWarmStarter(p Proposer, seeds []Config) *WarmStarter {
	return &WarmStarter{inner: p, seeds: append([]Config(nil), seeds...)}
}

// Propose implements Proposer.
func (w *WarmStarter) Propose(n int) []Config {
	if len(w.seeds) > 0 {
		return ProposeFixed(&w.seeds, n)
	}
	return w.inner.Propose(n)
}

// Observe implements Proposer.
func (w *WarmStarter) Observe(t Trial) { w.inner.Observe(t) }

// BindSession forwards the session handle to a session-aware inner proposer
// (see SessionAware) — warm starting must not hide a drift detector from
// its driver.
func (w *WarmStarter) BindSession(s *Session) {
	bindSession(w.inner, s)
}

// Recommend implements Recommender when the inner proposer does; otherwise
// it returns the invalid zero Config.
func (w *WarmStarter) Recommend() Config { return recommend(w.inner) }

// WarmStartTuner wraps t so every session it starts proposes seeds first.
// The wrapper preserves the ask/tell form, so the concurrent engine batches
// the seed evaluations like any other proposals.
func WarmStartTuner(t BatchTuner, seeds []Config) BatchTuner {
	if len(seeds) == 0 {
		return t
	}
	return &wrapped{subs: []BatchTuner{t}, wrap: func(_ Target, _ Budget, inner []Proposer) (Proposer, error) {
		return NewWarmStarter(inner[0], seeds), nil
	}}
}
