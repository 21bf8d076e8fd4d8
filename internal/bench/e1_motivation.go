package bench

import (
	"repro"
	"repro/internal/mathx/stat"
	"repro/internal/mathx/xrand"
)

// Motivation regenerates the paper's §1 motivating claims: improper
// parameter settings cause severe degradation and instability, while tuning
// buys improvements "sometimes measured in orders of magnitude". For each
// system we sample random configurations and compare their runtime
// distribution against the shipped default and a tuned configuration.
func Motivation(o Options) (*Table, error) {
	t := &Table{
		Title: "E1 (§1): cost of misconfiguration and value of tuning",
		Columns: []string{
			"system", "default", "random median", "random p95", "crash %",
			"worst/best", "tuned", "tuned speedup",
		},
	}
	samples := 300
	if o.Fast {
		samples = 60
	}
	systems := []struct {
		system, workload string
		scale            float64
	}{
		{"dbms", "tpch", o.scaleGB(10, 2)},
		{"dbms", "oltp", o.scaleGB(4, 1)},
		{"hadoop", "terasort", o.scaleGB(50, 4)},
		{"spark", "pagerank", o.scaleGB(5, 1)},
	}
	for i, s := range systems {
		target, err := repro.NewTarget(s.system, s.workload, o.Seed+int64(i+1), repro.TargetOptions{ScaleGB: s.scale})
		if err != nil {
			return nil, err
		}
		rng := xrand.New(o.Seed + 11)
		def := DefaultTime(target, 3)
		var times []float64
		fails := 0
		for range samples {
			res := target.Run(target.Space().Random(rng))
			if res.Failed {
				fails++
			}
			times = append(times, res.Time)
		}
		_, bestTime, err := Reference(target, o.Seed, referenceBudget(o))
		if err != nil {
			return nil, err
		}
		worst := stat.Max(times)
		best := stat.Min(times)
		t.AddRow(
			s.system+"/"+s.workload,
			fmtSeconds(def),
			fmtSeconds(stat.Quantile(times, 0.5)),
			fmtSeconds(stat.Quantile(times, 0.95)),
			float64(fails)/float64(samples)*100,
			speedup(worst, best),
			fmtSeconds(bestTime),
			fmtSpeedup(speedup(def, bestTime)),
		)
	}

	t.Note("%d random configurations per system; crash %% = failed runs (OOM, placement)", samples)
	t.Note("worst/best spans the random sample: the 'orders of magnitude' the paper cites")
	return t, nil
}

func referenceBudget(o Options) int {
	if o.Fast {
		return 25
	}
	return 120
}
