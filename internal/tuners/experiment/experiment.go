// Package experiment implements the survey's fourth category: tuners that
// learn from actual runs of the system, guided by experimental design and
// search algorithms.
//
//   - SARD (Debnath et al., ICDE'08 workshop): Plackett–Burman two-level
//     screening with foldover ranks parameters by main-effect magnitude,
//     then the budget concentrates on the top-ranked few.
//   - AdaptiveSampling (Babu et al., HotOS 2009): bootstrap with random
//     experiments, then balance exploitation (sample near the incumbent)
//     against exploration (sample far from everything seen).
//   - ITuned (Duan, Thummala & Babu, PVLDB 2009): Latin-hypercube
//     initialization, a Gaussian-process response surface, and Expected
//     Improvement to plan each next experiment.
//   - Baselines: pure random search, full-factorial grid over the top-impact
//     parameters, and recursive random search.
//
// Experiment-driven tuning finds genuinely good configurations on the real
// system — its Table-1 strength — at the price of many real runs, which the
// budget accounting here makes visible.
package experiment

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mathx/opt"
	"repro/internal/mathx/sample"
	"repro/internal/mathx/xrand"
	"repro/internal/tune"
)

// Random evaluates uniformly random configurations — the floor every other
// approach must beat.
type Random struct {
	Seed int64
}

// Name implements tune.Tuner.
func (t *Random) Name() string { return "experiment/random" }

// Grid sweeps a full factorial grid over the gridTopK highest-impact
// parameters (others stay at defaults), with as many levels as the budget
// affords.
type Grid struct{}

// gridTopK is how many parameters Grid sweeps.
const gridTopK = 3

// Name implements tune.Tuner.
func (t *Grid) Name() string { return "experiment/grid" }

// RRS wraps recursive random search over real runs.
type RRS struct {
	tune.SequentialBody
	Seed int64
}

// Name implements tune.Tuner.
func (t *RRS) Name() string { return "experiment/rrs" }

// NewProposer implements tune.BatchTuner: the search is a sequential body.
func (t *RRS) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	return tune.Sequential(func(run tune.RunFunc) {
		rng := xrand.New(t.Seed)
		opt.RecursiveRandomSearch(objective(space, run), space.Dim(), b.Trials, rng)
	}), nil
}

// objective scores a unit-cube point by running it. Once the session has
// ended every point scores +Inf, so a search that cannot be interrupted
// unwinds without further runs.
func objective(space *tune.Space, run tune.RunFunc) opt.Func {
	return func(x []float64) float64 {
		res, ok := run(space.FromVector(x))
		if !ok {
			return math.Inf(1)
		}
		return res.Objective()
	}
}

// incumbent tracks the best configuration a sequential body has run, by the
// session's own rule (strictly lower objective wins, failures included).
type incumbent struct {
	cfg tune.Config
	obj float64
}

func (in *incumbent) note(cfg tune.Config, res tune.Result) {
	if !in.cfg.Valid() || res.Objective() < in.obj {
		in.cfg, in.obj = cfg, res.Objective()
	}
}

// SARD ranks parameters with a Plackett–Burman screening design (plus
// foldover) and then tunes only the influential ones with the remaining
// budget.
type SARD struct {
	tune.SequentialBody
	Seed int64
}

const (
	// sardTopK is how many parameters SARD tunes after screening.
	sardTopK = 4
	// sardLo and sardHi are the unit-cube positions of the two levels.
	sardLo, sardHi = 0.15, 0.85
)

// NewSARD returns a SARD tuner.
func NewSARD(seed int64) *SARD { return &SARD{Seed: seed} }

// Name implements tune.Tuner.
func (t *SARD) Name() string { return "experiment/sard" }

// Screen runs only the screening phase and returns the parameter ranking
// (names, most important first) and |main effect| per parameter in the
// space's parameter order.
func (t *SARD) Screen(ctx context.Context, target tune.Target, b tune.Budget) (ranking []string, effects []float64, err error) {
	p := tune.Sequential(func(run tune.RunFunc) { _, _, ranking, effects = screen(target.Space(), run) })
	if _, err := tune.DriveProposer(ctx, t.Name(), target, b, p); err != nil {
		return nil, nil, err
	}
	return ranking, effects, nil
}

// screen runs the screening design through run and returns the best
// configuration it saw, how many runs it spent, the parameter ranking and the
// main effects.
func screen(space *tune.Space, run tune.RunFunc) (best incumbent, runs int, ranking []string, effects []float64) {
	d := space.Dim()
	var rows [][]int
	var ys []float64
	for _, row := range sample.Foldover(sample.PlackettBurman(d)) {
		cfg := space.FromVector(sample.LevelsToPoint(row, sardLo, sardHi))
		res, ok := run(cfg)
		if !ok {
			break
		}
		best.note(cfg, res)
		rows = append(rows, row)
		ys = append(ys, res.Objective())
	}
	// Main effect of parameter j: mean(y | +) − mean(y | −).
	effects = make([]float64, d)
	for j := 0; j < d; j++ {
		var hi, lo, nHi, nLo float64
		for i, row := range rows {
			if row[j] > 0 {
				hi += ys[i]
				nHi++
			} else {
				lo += ys[i]
				nLo++
			}
		}
		if nHi > 0 && nLo > 0 {
			effects[j] = math.Abs(hi/nHi - lo/nLo)
		}
	}
	names := space.Names()
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return effects[order[a]] > effects[order[b]] })
	ranking = make([]string, d)
	for i, j := range order {
		ranking[i] = names[j]
	}
	return best, len(rows), ranking, effects
}

// NewProposer implements tune.BatchTuner: screen, then recursive random
// search over the top-ranked parameters only, as one sequential body.
func (t *SARD) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	return tune.Sequential(func(run tune.RunFunc) {
		best, runs, ranking, _ := screen(space, run)
		topK := min(sardTopK, len(ranking))
		idx := make([]int, topK)
		for i, name := range ranking[:topK] {
			idx[i] = space.IndexOf(name)
		}
		if !best.cfg.Valid() {
			best.cfg = space.Default()
		}
		base := best.cfg.Vector()
		f := objective(space, run)
		rng := xrand.New(t.Seed + 1)
		opt.RecursiveRandomSearch(func(sub []float64) float64 {
			x := append([]float64(nil), base...)
			for i, v := range sub {
				x[idx[i]] = v
			}
			return f(x)
		}, topK, b.Trials-runs, rng)
	}), nil
}

// AdaptiveSampling is the HotOS'09 experiment planner: bootstrap randomly,
// then alternate between exploiting near the incumbent and exploring the
// least-sampled region.
type AdaptiveSampling struct {
	tune.SequentialBody
	Seed int64
}

// exploreFrac is the fraction of post-bootstrap trials AdaptiveSampling
// spends exploring.
const exploreFrac = 0.3

// NewAdaptiveSampling returns an adaptive-sampling tuner.
func NewAdaptiveSampling(seed int64) *AdaptiveSampling { return &AdaptiveSampling{Seed: seed} }

// Name implements tune.Tuner.
func (t *AdaptiveSampling) Name() string { return "experiment/adaptive-sampling" }

// NewProposer implements tune.BatchTuner: the planner is a sequential body.
func (t *AdaptiveSampling) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	return tune.Sequential(func(run tune.RunFunc) { t.plan(space, run) }), nil
}

func (t *AdaptiveSampling) plan(space *tune.Space, run tune.RunFunc) {
	d := space.Dim()
	rng := xrand.New(t.Seed)
	boot := max(d, 5) // random bootstrap runs
	var best incumbent
	var seen [][]float64
	for i := 0; i < boot; i++ {
		cfg := space.Random(rng)
		res, ok := run(cfg)
		if !ok {
			return
		}
		best.note(cfg, res)
		seen = append(seen, cfg.Vector())
	}
	radius := 0.2
	for {
		var next []float64
		if rng.Float64() < exploreFrac {
			// Exploration: among candidates, pick the one farthest from
			// every seen sample (maximin).
			bestD := -1.0
			for c := 0; c < 32; c++ {
				cand := randPoint(d, rng)
				dist := math.Inf(1)
				for _, p := range seen {
					if dd := sqDist(cand, p); dd < dist {
						dist = dd
					}
				}
				if dist > bestD {
					bestD, next = dist, cand
				}
			}
		} else {
			// Exploitation: perturb the incumbent within a shrinking box.
			bv := best.cfg.Vector()
			next = make([]float64, d)
			for j := range next {
				next[j] = clamp01(bv[j] + (rng.Float64()*2-1)*radius)
			}
			radius = math.Max(0.03, radius*0.97)
		}
		cfg := space.FromVector(next)
		res, ok := run(cfg)
		if !ok {
			return
		}
		best.note(cfg, res)
		seen = append(seen, next)
	}
}

// ITuned is the PVLDB'09 GP/EI experiment planner: a Matérn 5/2 GP over a
// Latin-hypercube initialization of budget/3 points, clamped to [4, 10].
type ITuned struct {
	Seed int64
}

// NewITuned returns an iTuned tuner.
func NewITuned(seed int64) *ITuned { return &ITuned{Seed: seed} }

// Name implements tune.Tuner.
func (t *ITuned) Name() string { return "experiment/ituned" }

func randPoint(d int, rng *rand.Rand) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Interface conformance checks (the batchable three are in proposers.go).
var (
	_ tune.BatchTuner = (*RRS)(nil)
	_ tune.BatchTuner = (*SARD)(nil)
	_ tune.BatchTuner = (*AdaptiveSampling)(nil)
)
