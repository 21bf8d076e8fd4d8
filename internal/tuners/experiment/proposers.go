package experiment

import (
	"math"
	"math/rand"

	"repro/internal/mathx/gp"
	"repro/internal/mathx/sample"
	"repro/internal/mathx/xrand"
	"repro/internal/tune"
)

// This file holds the ask/tell (propose–observe) forms of the batchable
// experiment-driven tuners. Random and Grid are embarrassingly batchable;
// iTuned batches its Latin-hypercube initialization outright and its GP
// phase through a constant-liar-style penalized EI that keeps within-batch
// candidates apart. RRS, SARD and AdaptiveSampling are ask/tell too, but
// their next experiment depends on the previous result through search state
// with no batch form: they keep their loops as sequential bodies behind
// tune.Sequential, next to their types in experiment.go.

// randomProposer streams uniform random configurations.
type randomProposer struct {
	space *tune.Space
	rng   *rand.Rand
}

// NewProposer implements tune.BatchTuner.
func (t *Random) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	return &randomProposer{space: target.Space(), rng: xrand.New(t.Seed)}, nil
}

func (p *randomProposer) Propose(n int) []tune.Config {
	out := make([]tune.Config, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.space.Random(p.rng))
	}
	return out
}

func (p *randomProposer) Observe(tune.Trial) {}

// gridProposer walks a precomputed factorial design.
type gridProposer struct {
	pending []tune.Config
}

// NewProposer implements tune.BatchTuner.
func (t *Grid) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	k := min(gridTopK, space.Dim())
	levels := int(math.Floor(math.Pow(float64(b.Trials), 1/float64(k))))
	if levels < 2 {
		levels = 2
	}
	ranked := space.ByImpact()[:k]
	idx := make([]int, k)
	for i, name := range ranked {
		idx[i] = space.IndexOf(name)
	}
	base := space.Default().Vector()
	var pending []tune.Config
	for _, p := range sample.Grid(levels, k) {
		x := append([]float64(nil), base...)
		for i, v := range p {
			x[idx[i]] = v
		}
		pending = append(pending, space.FromVector(x))
	}
	return &gridProposer{pending: pending}, nil
}

func (p *gridProposer) Propose(n int) []tune.Config { return tune.ProposeFixed(&p.pending, n) }

func (p *gridProposer) Observe(tune.Trial) {}

// itunedProposer is iTuned in ask/tell form: a Latin-hypercube design
// proposed as one batch, then GP/EI rounds of up to tune.AcquireBatch candidates. History,
// model lifecycle and the acquisition round are tune.SurrogateModel's; iTuned
// is its round searched over every coordinate.
type itunedProposer struct {
	space *tune.Space
	rng   *rand.Rand

	pending []tune.Config
	model   *tune.SurrogateModel
}

// NewProposer implements tune.BatchTuner.
func (t *ITuned) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	d := space.Dim()
	rng := xrand.New(t.Seed)
	initN := min(max(b.Trials/3, 4), 10) // the Latin-hypercube design
	p := &itunedProposer{
		space: space, rng: rng,
		model: tune.NewSurrogateModel(gp.Matern52, t.Seed),
	}
	for _, x := range sample.LatinHypercube(initN, d, rng) {
		p.pending = append(p.pending, space.FromVector(x))
	}
	return p, nil
}

func (p *itunedProposer) Propose(n int) []tune.Config {
	if len(p.pending) > 0 {
		return tune.ProposeFixed(&p.pending, n)
	}
	if n <= 0 {
		return nil
	}
	// The exact tier keeps its historical n ≤ 60 hyperparameter-search rule.
	if p.model.Sync(60) == nil {
		// Degenerate surface: fall back to one random probe.
		return []tune.Config{p.space.Random(p.rng)}
	}
	var out []tune.Config
	for _, x := range p.model.Acquire(min(tune.AcquireBatch, n), nil, 60, p.rng) {
		out = append(out, p.space.FromVector(x))
	}
	return out
}

func (p *itunedProposer) Observe(t tune.Trial) {
	p.model.Observe(t.Config.Vector(), t.Result.Objective())
}

// Interface conformance checks.
var (
	_ tune.BatchTuner = (*Random)(nil)
	_ tune.BatchTuner = (*Grid)(nil)
	_ tune.BatchTuner = (*ITuned)(nil)
)
