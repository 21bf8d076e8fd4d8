package ml

import (
	"math"
	"math/rand"

	"repro/internal/mathx/gp"
	"repro/internal/mathx/nn"
	"repro/internal/mathx/opt"
	"repro/internal/mathx/sample"
	"repro/internal/tune"
)

// Ask/tell forms of the ML tuners. OtterTune's offline phase (metric
// pruning, Lasso knob ranking) runs at proposer construction; the initial
// observations are one batch; workload mapping happens once, after the
// batch is observed; GP rounds then propose up to Batch candidates via
// penalized EI over the active knobs. The neural tuner batches its
// initialization and stays one-at-a-time afterwards — each proposal
// retrains the surrogate on everything observed so far.

// otProposer is OtterTune in ask/tell form. Like the iTuned proposer, its
// GP rounds screen a candidate pool over the active knobs with one batched
// ScoreCandidates call and polish the best start with a local simplex
// search; the model persists across rounds behind tune.SurrogateModel.
type otProposer struct {
	t     *OtterTune
	space *tune.Space
	rng   *rand.Rand
	batch int

	sessions []tune.SessionRecord
	pruned   []string
	active   []int
	topK     int

	pending []tune.Config
	mapped  bool

	xs, mappedX [][]float64
	ys, mappedY []float64
	observed    map[string]float64
	nObs        float64
	bestX       []float64
	incumbent   float64

	model  *tune.SurrogateModel
	scores []float64
}

// screenPool is how many candidate knob settings each GP round scores in
// the batched screening pass before polishing.
const screenPool = 48

// batchPenalty shrinks an acquisition score near sub-vectors already chosen
// this round so a batch spreads out across the active knobs.
func batchPenalty(sub []float64, chosen [][]float64) float64 {
	pen := 1.0
	for _, c := range chosen {
		pen *= 1 - math.Exp(-sqDistSub(sub, c)/(0.15*0.15))
	}
	return pen
}

// embed writes sub into the active knob positions of dst (a copy of base).
func (p *otProposer) embed(dst, base, sub []float64) []float64 {
	copy(dst, base)
	for j, v := range sub {
		dst[p.active[j]] = v
	}
	return dst
}

// NewProposer implements tune.BatchTuner: the offline phase.
func (t *OtterTune) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	d := space.Dim()
	rng := rand.New(rand.NewSource(t.Seed))

	var sessions []tune.SessionRecord
	if t.Repo != nil {
		sessions = t.Repo.ForSystem(system(target.Name()))
	}
	keep := t.PrunedMetrics
	if keep <= 0 {
		keep = 6
	}
	pruned := pruneMetrics(sessions, keep, rng)
	t.LastPrunedMetrics = pruned
	ranking := rankKnobs(space, sessions)
	t.LastKnobRanking = ranking
	topK := t.TopKnobs
	if topK <= 0 {
		topK = 8
	}
	if topK > len(ranking) {
		topK = len(ranking)
	}
	active := make([]int, topK)
	for i, n := range ranking[:topK] {
		active[i] = space.IndexOf(n)
	}

	initN := t.InitObs
	if initN <= 0 {
		initN = 5
	}
	batch := t.Batch
	if batch <= 0 {
		batch = 4
	}
	p := &otProposer{
		t: t, space: space, rng: rng, batch: batch,
		model:    tune.NewSurrogateModel(t.Surrogate, gp.Matern52, t.Seed),
		sessions: sessions, pruned: pruned, active: active, topK: topK,
		observed: map[string]float64{}, incumbent: math.Inf(1),
	}
	p.pending = append(p.pending, space.Default())
	for _, x := range sample.LatinHypercube(initN, d, rng) {
		p.pending = append(p.pending, space.FromVector(x))
	}
	return p, nil
}

// mapWorkloadOnce borrows the nearest past workload's observations, scaled
// to the target's observed objective level.
func (p *otProposer) mapWorkloadOnce() {
	p.mapped = true
	if len(p.sessions) == 0 || p.nObs == 0 {
		return
	}
	avg := make(map[string]float64, len(p.observed))
	for k, v := range p.observed {
		avg[k] = v / p.nObs
	}
	at := mapWorkload(p.sessions, p.pruned, avg)
	if at < 0 {
		return
	}
	sess := p.sessions[at]
	p.t.LastMappedWorkload = sess.Workload
	if len(sess.ParamNames) != p.space.Dim() {
		return
	}
	var vals []float64
	for _, tr := range sess.Trials {
		vals = append(vals, tr.Time)
	}
	tm, tsd := medianIQR(vals)
	om, osd := medianIQR(p.ys)
	for _, tr := range sess.Trials {
		p.mappedX = append(p.mappedX, tr.Vector)
		p.mappedY = append(p.mappedY, om+(tr.Time-tm)/tsd*osd)
	}
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
	if len(p.xs) == 0 {
		// Every initial trial failed: nothing to anchor a model round on.
		return []tune.Config{p.space.Random(p.rng)}
	}
	// The transferred corpus counts toward the tier decision: mapping a
	// thousand-trial repository session pushes the model straight into the
	// sparse or RFF tier instead of an O(n³) exact fit.
	gx := append(append([][]float64(nil), p.mappedX...), p.xs...)
	gy := append(append([]float64(nil), p.mappedY...), p.ys...)
	model := p.model.Sync(gx, gy, len(gx) <= 80)
	if model == nil {
		return []tune.Config{p.space.Random(p.rng)}
	}
	k := p.batch
	if k > n {
		k = n
	}
	base := p.bestX
	// Screen: batch-score the incumbent's active knobs plus a uniform pool
	// of knob settings, each embedded into the incumbent configuration.
	subs := make([][]float64, 0, screenPool+1)
	subs = append(subs, subVector(base, p.active))
	for i := 0; i < screenPool; i++ {
		sub := make([]float64, p.topK)
		for j := range sub {
			sub[j] = p.rng.Float64()
		}
		subs = append(subs, sub)
	}
	fulls := make([][]float64, len(subs))
	for i, sub := range subs {
		fulls[i] = p.embed(make([]float64, len(base)), base, sub)
	}
	p.scores = model.ScoreCandidates(fulls, p.incumbent, p.scores)
	out := make([]tune.Config, 0, k)
	var chosen [][]float64
	xbuf := make([]float64, len(base))
	for i := 0; i < k; i++ {
		bestAt, bestScore := 0, math.Inf(-1)
		for c, sub := range subs {
			if s := p.scores[c] * batchPenalty(sub, chosen); s > bestScore {
				bestAt, bestScore = c, s
			}
		}
		next := opt.NelderMead(func(sub []float64) float64 {
			p.embed(xbuf, base, sub)
			return -model.ExpectedImprovement(xbuf, p.incumbent) * batchPenalty(sub, chosen)
		}, subs[bestAt], 0.15, 50)
		sub := next.X
		if next.F >= 0 { // no positive EI: explore the active knobs
			sub = make([]float64, p.topK)
			for j := range sub {
				sub[j] = p.rng.Float64()
			}
		}
		chosen = append(chosen, sub)
		out = append(out, p.space.FromVector(p.embed(make([]float64, len(base)), base, sub)))
	}
	return out
}

func (p *otProposer) Observe(t tune.Trial) {
	x := t.Config.Vector()
	y := t.Result.Objective()
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return // a failed trial: see itunedProposer.Observe
	}
	p.xs = append(p.xs, x)
	p.ys = append(p.ys, y)
	for k, v := range t.Result.Metrics {
		p.observed[k] += v
	}
	p.nObs++
	if y < p.incumbent {
		p.incumbent, p.bestX = y, x
	}
}

func sqDistSub(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// neuralProposer is the Rodd & Kulkarni tuner in ask/tell form.
type neuralProposer struct {
	t     *NeuralTuner
	space *tune.Space
	rng   *rand.Rand

	pending []tune.Config
	xs      [][]float64
	ys      []float64
	hidden  int
	eps     float64
}

// NewProposer implements tune.BatchTuner.
func (t *NeuralTuner) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	d := space.Dim()
	rng := rand.New(rand.NewSource(t.Seed))
	initN := t.InitObs
	if initN <= 0 {
		initN = 2 * d
		if initN < 6 {
			initN = 6
		}
		if initN > b.Trials/2 && b.Trials >= 4 {
			initN = b.Trials / 2
		}
	}
	hidden := t.Hidden
	if hidden <= 0 {
		hidden = 24
	}
	eps := t.Epsilon
	if eps <= 0 {
		eps = 0.2
	}
	p := &neuralProposer{t: t, space: space, rng: rng, hidden: hidden, eps: eps}
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
	if len(p.xs) >= 4 && p.rng.Float64() >= p.eps {
		net := nn.NewMLP(rand.New(rand.NewSource(p.t.Seed+int64(len(p.xs)))), d, p.hidden, p.hidden, 1)
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
