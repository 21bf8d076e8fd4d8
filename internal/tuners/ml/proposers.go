package ml

import (
	"math/rand"
	"strings"

	"repro/internal/mathx/gp"
	"repro/internal/mathx/nn"
	"repro/internal/mathx/opt"
	"repro/internal/mathx/sample"
	"repro/internal/tune"
)

// Ask/tell forms of the ML tuners. OtterTune's offline phase (metric
// pruning, Lasso knob ranking) runs at proposer construction; the initial
// observations are one batch; workload mapping happens once, after the
// batch is observed; GP rounds then propose up to tune.AcquireBatch candidates via
// penalized EI over the active knobs. The neural tuner batches its
// initialization and stays one-at-a-time afterwards — each proposal
// retrains the surrogate on everything observed so far.

// otProposer is OtterTune in ask/tell form. History, model lifecycle and the
// acquisition round are tune.SurrogateModel's; OtterTune's own parts are the
// offline phase, the mapped workload it places ahead of its observations, and
// a round searched over the top-ranked knobs only.
type otProposer struct {
	t     *OtterTune
	space *tune.Space
	rng   *rand.Rand

	sessions []tune.SessionRecord
	pruned   []string
	active   []int

	pending []tune.Config
	initial []tune.Trial // the accepted observations before the mapping
	mapped  bool

	model *tune.SurrogateModel
}

// NewProposer implements tune.BatchTuner: the offline phase.
func (t *OtterTune) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	d := space.Dim()
	rng := rand.New(rand.NewSource(t.Seed))

	system, _, _ := strings.Cut(target.Name(), "/")
	sessions, _ := t.Repo.ForSystem(system) // in memory: never fails
	pruned := pruneMetrics(sessions, otPrunedMetrics, rng)
	ranking := rankKnobs(space, sessions)
	topK := min(otTopKnobs, len(ranking))
	active := make([]int, topK)
	for i, n := range ranking[:topK] {
		active[i] = space.IndexOf(n)
	}

	p := &otProposer{
		t: t, space: space, rng: rng,
		model:    tune.NewSurrogateModel(t.Surrogate, gp.Matern52, t.Seed),
		sessions: sessions, pruned: pruned, active: active,
	}
	p.pending = append(p.pending, space.Default())
	for _, x := range sample.LatinHypercube(otInitObs, d, rng) {
		p.pending = append(p.pending, space.FromVector(x))
	}
	return p, nil
}

// mapWorkloadOnce borrows the nearest past workload's observations, scaled
// to the target's observed objective level.
func (p *otProposer) mapWorkloadOnce() {
	p.mapped = true
	at := mapWorkload(p.sessions, p.pruned, p.initial)
	p.initial = nil
	if at < 0 {
		return
	}
	sess := p.sessions[at]
	if len(sess.ParamNames) != p.space.Dim() {
		return
	}
	var vals []float64
	for _, tr := range sess.Trials {
		vals = append(vals, tr.Time)
	}
	tm, tsd := medianIQR(vals)
	_, ys := p.model.Observations()
	om, osd := medianIQR(ys)
	var mappedX [][]float64
	var mappedY []float64
	for _, tr := range sess.Trials {
		mappedX = append(mappedX, tr.Vector)
		mappedY = append(mappedY, om+(tr.Time-tm)/tsd*osd)
	}
	p.model.SetPrior(mappedX, mappedY)
}

func (p *otProposer) Propose(n int) []tune.Config {
	if len(p.pending) > 0 {
		return tune.ProposeFixed(&p.pending, n)
	}
	if n <= 0 {
		return nil
	}
	if !p.mapped {
		p.mapWorkloadOnce()
	}
	// No model — every initial trial failed, or a degenerate surface: one
	// random probe. The exact tier keeps its historical n ≤ 80 rule.
	if p.model.Sync(80) == nil {
		return []tune.Config{p.space.Random(p.rng)}
	}
	var out []tune.Config
	for _, x := range p.model.Acquire(min(tune.AcquireBatch, n), p.active, 50, p.rng) {
		out = append(out, p.space.FromVector(x))
	}
	return out
}

func (p *otProposer) Observe(t tune.Trial) {
	// A refused observation's metrics describe no workload either.
	if p.model.Observe(t.Config.Vector(), t.Result.Objective()) && !p.mapped {
		p.initial = append(p.initial, t)
	}
}

// neuralProposer is the Rodd & Kulkarni tuner in ask/tell form.
type neuralProposer struct {
	t     *NeuralTuner
	space *tune.Space
	rng   *rand.Rand

	pending []tune.Config
	xs      [][]float64
	ys      []float64
}

// NewProposer implements tune.BatchTuner.
func (t *NeuralTuner) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	d := space.Dim()
	rng := rand.New(rand.NewSource(t.Seed))
	// The surrogate's seed observations: 2·dim, at least 6, at most half a
	// budget of four or more trials.
	initN := max(2*d, 6)
	if initN > b.Trials/2 && b.Trials >= 4 {
		initN = b.Trials / 2
	}
	p := &neuralProposer{t: t, space: space, rng: rng}
	for _, x := range sample.LatinHypercube(initN, d, rng) {
		p.pending = append(p.pending, space.FromVector(x))
	}
	return p, nil
}

func (p *neuralProposer) Propose(n int) []tune.Config {
	if len(p.pending) > 0 {
		return tune.ProposeFixed(&p.pending, n)
	}
	if n <= 0 {
		return nil
	}
	d := p.space.Dim()
	var x []float64
	if len(p.xs) >= 4 && p.rng.Float64() >= neuralEpsilon {
		net := nn.NewMLP(rand.New(rand.NewSource(p.t.Seed+int64(len(p.xs)))), d, neuralHidden, neuralHidden, 1)
		net.Train(p.xs, p.ys, 150, 0.01)
		best := opt.RecursiveRandomSearch(func(q []float64) float64 {
			return net.Predict(q)
		}, d, 600, p.rng)
		x = best.X
	} else {
		x = make([]float64, d)
		for i := range x {
			x[i] = p.rng.Float64()
		}
	}
	return []tune.Config{p.space.FromVector(x)}
}

func (p *neuralProposer) Observe(t tune.Trial) {
	p.xs = append(p.xs, t.Config.Vector())
	p.ys = append(p.ys, t.Result.Objective())
}

// Interface conformance checks.
var (
	_ tune.BatchTuner = (*OtterTune)(nil)
	_ tune.BatchTuner = (*NeuralTuner)(nil)
)
