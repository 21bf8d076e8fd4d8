package bench

import (
	"fmt"

	"repro"
	"repro/internal/tune"
)

// pastWorkloads is the history a synthetic repository is built from: per
// system, the past workloads and their scale in GB (full, fast).
var pastWorkloads = map[string][]struct {
	workload   string
	full, fast float64
}{
	"dbms":   {{"tpch", 10, 2}, {"oltp", 4, 1}, {"mixed", 6, 1.5}},
	"hadoop": {{"wordcount", 30, 3}, {"terasort", 30, 3}, {"aggregation", 20, 2}},
	"spark":  {{"wordcount", 20, 2}, {"terasort", 20, 2}, {"pagerank", 5, 1}, {"kmeans", 8, 1}},
}

// BuildRepository synthesizes a tuning repository from past sessions over
// the system's workloads other than exclude — the corpus OtterTune-style
// transfer requires. Each past workload contributes a guided session
// (iTuned) and an exploratory one (random, half the trials, recorded as
// "<workload>/explore"), each on its own target and seed. The sessions are
// recorded in cell order, so the repository is independent of parallelism.
func BuildRepository(o Options, system, exclude string) (*tune.Repository, error) {
	past, ok := pastWorkloads[system]
	if !ok {
		return nil, fmt.Errorf("no past workloads for system %q", system)
	}
	trials := 20
	if o.Fast {
		trials = 8
	}
	var cells []cell
	var names []string
	for i, p := range past {
		if p.workload == exclude {
			continue
		}
		guided := repro.Spec{
			System: system, Workload: p.workload, Tuner: "ituned",
			Seed:   o.Seed + 100 + int64(10*i),
			Budget: tune.Budget{Trials: trials},
			Target: repro.TargetOptions{ScaleGB: o.scaleGB(p.full, p.fast)},
		}
		explore := guided
		explore.Tuner, explore.Seed, explore.Budget.Trials = "random", guided.Seed+5000, trials/2
		cells = append(cells, cell{spec: guided}, cell{spec: explore})
		names = append(names, p.workload, p.workload+"/explore")
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, fmt.Errorf("building the %s repository: %w", system, err)
	}
	repo := &tune.Repository{}
	for i, s := range sessions {
		var features map[string]float64
		if d, ok := s.job.Target.(tune.Describer); ok {
			features = d.WorkloadFeatures()
		}
		repo.AddResult(system, names[i], features, s.result)
	}
	return repo, nil
}
