package rulebased

import (
	"math"

	"repro/internal/tune"
)

// Ask/tell forms of the rule-based tuners. A rulebook is a pure offline
// recommendation with one verification run (falling back to the default
// configuration if the advice crashes the deployment). The navigator's
// one-at-a-time sweeps batch naturally: all levels of one parameter derive
// from the same incumbent, so each sweep is one parallel batch.

// NewProposer implements tune.BatchTuner.
func (t *Tuner) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	var specs, features map[string]float64
	if sp, ok := target.(tune.SpecProvider); ok {
		specs = sp.Specs()
	}
	if d, ok := target.(tune.Describer); ok {
		features = d.WorkloadFeatures()
	}
	rec := t.Book.Apply(target.Space(), specs, features)
	// The advice crashed this deployment: retreat to defaults.
	repair := func(tune.Config) tune.Config { return target.Space().Default() }
	return tune.NewRecommendProposer(rec, repair), nil
}

// navProposer sweeps the top-impact parameters one at a time, each sweep
// proposed as one batch around the incumbent so far.
type navProposer struct {
	space  *tune.Space
	ranked []string

	pending []tune.Config
	started bool
	next    int // index into ranked of the next parameter to sweep

	best    tune.Config
	bestObj float64
}

// NewProposer implements tune.BatchTuner.
func (n *Navigator) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	ranked := space.ByImpact()
	return &navProposer{
		space:   space,
		ranked:  ranked[:min(navTopK, len(ranked))],
		bestObj: math.Inf(1),
	}, nil
}

func (p *navProposer) Propose(n int) []tune.Config {
	if len(p.pending) == 0 {
		switch {
		case !p.started:
			p.started = true
			p.pending = []tune.Config{p.space.Default()}
		case p.next < len(p.ranked):
			// Sweep the parameter across its range in unit-cube coordinates,
			// all other parameters held at the incumbent.
			idx := p.space.IndexOf(p.ranked[p.next])
			p.next++
			base := p.best
			if !base.Valid() {
				base = p.space.Default()
			}
			for l := 0; l < navLevels; l++ {
				x := base.Vector()
				x[idx] = (float64(l) + 0.5) / navLevels
				p.pending = append(p.pending, p.space.FromVector(x))
			}
		}
	}
	return tune.ProposeFixed(&p.pending, n)
}

func (p *navProposer) Observe(t tune.Trial) {
	if obj := t.Result.Objective(); obj < p.bestObj {
		p.bestObj, p.best = obj, t.Config
	}
}

// Interface conformance checks.
var (
	_ tune.BatchTuner = (*Tuner)(nil)
	_ tune.BatchTuner = (*Navigator)(nil)
)
