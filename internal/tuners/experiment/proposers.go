package experiment

import (
	"math"
	"math/rand"

	"repro/internal/mathx/gp"
	"repro/internal/mathx/opt"
	"repro/internal/mathx/sample"
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
	return &randomProposer{space: target.Space(), rng: rand.New(rand.NewSource(t.Seed))}, nil
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
	k := t.TopK
	if k <= 0 {
		k = 3
	}
	if k > space.Dim() {
		k = space.Dim()
	}
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
// proposed as one batch, then GP/EI rounds of up to Batch candidates. The
// within-round candidates are separated by penalizing EI near already-
// chosen points (a liar-free stand-in for q-EI), so a round's proposals
// depend only on observed history — never on worker scheduling.
//
// Each GP round screens a pool of uniform candidates with one batched
// ScoreCandidates call, then polishes the best screened start with a local
// simplex search — far fewer acquisition evaluations than cold multi-start,
// and the ones that remain are allocation-free. The model persists across
// rounds: with ReoptimizeEvery > 1, in-between rounds absorb new
// observations through gp.Append instead of refitting.
type itunedProposer struct {
	t     *ITuned
	space *tune.Space
	rng   *rand.Rand
	batch int
	sel   *tune.SurrogateSelector

	pending   []tune.Config
	xs        [][]float64
	ys        []float64
	bestX     []float64
	incumbent float64

	model    gp.Surrogate
	absorbed int // observations the model has conditioned on
	round    int // GP rounds run
	scores   []float64
}

// screenPool is how many uniform candidates each GP round scores in the
// batched screening pass before polishing.
const screenPool = 48

// batchPenalty shrinks an acquisition score near points already chosen this
// round so a batch spreads out instead of piling onto one optimum.
func batchPenalty(x []float64, chosen [][]float64) float64 {
	pen := 1.0
	for _, c := range chosen {
		pen *= 1 - math.Exp(-sqDist(x, c)/(0.15*0.15))
	}
	return pen
}

// ensureModel brings the surrogate in sync with the observed history: a full
// hyperparameter-searched refit on re-optimization rounds, an incremental
// append otherwise. Reports false when fitting failed (degenerate surface).
// The surrogate tier is resolved per re-optimization round from the observed
// history size — sessions grow exact → sparse → RFF as trials accumulate —
// while below the sparse threshold the selector hands back exactly the
// historical gp.New path, keeping existing event streams byte-identical.
func (p *itunedProposer) ensureModel() bool {
	every := p.t.ReoptimizeEvery
	if every < 1 {
		every = 1
	}
	reopt := p.model == nil || p.round%every == 0
	p.round++
	if reopt {
		tier := p.sel.TierFor(len(p.xs), p.space.Dim())
		m := p.sel.New(p.t.Kernel, tier, p.t.Seed)
		// The sparse and RFF tiers select hyperparameters on an inducing
		// subset — O(m³) — so they can afford the search at every size; the
		// exact tier keeps its historical n ≤ 60 optimize rule bit-for-bit.
		optimize := len(p.xs) <= 60 || tier != tune.SurrogateExact
		if err := m.Fit(p.xs, p.ys, optimize); err != nil {
			p.model = nil
			return false
		}
		p.model, p.absorbed = m, len(p.xs)
		return true
	}
	for ; p.absorbed < len(p.xs); p.absorbed++ {
		if err := p.model.Append(p.xs[p.absorbed], p.ys[p.absorbed]); err != nil {
			p.model = nil
			return false
		}
	}
	return true
}

// NewProposer implements tune.BatchTuner.
func (t *ITuned) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	d := space.Dim()
	rng := rand.New(rand.NewSource(t.Seed))
	initN := t.InitLHS
	if initN <= 0 {
		initN = b.Trials / 3
		if initN > 10 {
			initN = 10
		}
		if initN < 4 {
			initN = 4
		}
	}
	batch := t.Batch
	if batch <= 0 {
		batch = 4
	}
	p := &itunedProposer{
		t: t, space: space, rng: rng, batch: batch, incumbent: math.Inf(1),
		sel: tune.NewSurrogateSelector(t.Surrogate),
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
	d := p.space.Dim()
	if !p.ensureModel() {
		// Degenerate surface: fall back to one random probe.
		return []tune.Config{p.space.Random(p.rng)}
	}
	model := p.model
	k := p.batch
	if k > n {
		k = n
	}
	// Screen: one batched scoring pass over the incumbent plus a uniform
	// candidate pool.
	pool := make([][]float64, 0, screenPool+1)
	pool = append(pool, p.bestX)
	for i := 0; i < screenPool; i++ {
		pool = append(pool, randPoint(d, p.rng))
	}
	p.scores = model.ScoreCandidates(pool, p.incumbent, p.scores)
	out := make([]tune.Config, 0, k)
	var chosen [][]float64
	for i := 0; i < k; i++ {
		// Pick the best screened start under the spread penalty, then
		// polish it with a local simplex search on penalized EI.
		bestAt, bestScore := 0, math.Inf(-1)
		for c, cand := range pool {
			if s := p.scores[c] * batchPenalty(cand, chosen); s > bestScore {
				bestAt, bestScore = c, s
			}
		}
		next := opt.NelderMead(func(x []float64) float64 {
			return -model.ExpectedImprovement(x, p.incumbent) * batchPenalty(x, chosen)
		}, pool[bestAt], 0.15, 60)
		x := next.X
		if next.F >= 0 { // no positive EI left: explore
			x = randPoint(d, p.rng)
		}
		chosen = append(chosen, x)
		out = append(out, p.space.FromVector(x))
	}
	return out
}

func (p *itunedProposer) Observe(t tune.Trial) {
	x := t.Config.Vector()
	y := t.Result.Objective()
	p.xs = append(p.xs, x)
	p.ys = append(p.ys, y)
	if y < p.incumbent {
		p.incumbent, p.bestX = y, x
	}
}

// Interface conformance checks.
var (
	_ tune.BatchTuner = (*Random)(nil)
	_ tune.BatchTuner = (*Grid)(nil)
	_ tune.BatchTuner = (*ITuned)(nil)
)
