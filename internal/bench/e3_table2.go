package bench

import (
	"context"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/mathx/stat"
	"repro/internal/sysmodel/trace"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/tuners/ml"
	"repro/internal/tuners/rulebased"
	"repro/internal/tuners/simulation"
)

// groundTruthImportance estimates each parameter's true effect on the target
// by a one-at-a-time sweep: the spread of mean runtimes across levels of the
// parameter with everything else at defaults. Ranking approaches (SARD,
// configuration navigation, Lasso) are scored against this ordering.
func groundTruthImportance(target tune.Target, levels, reps int) []float64 {
	space := target.Space()
	d := space.Dim()
	base := space.Default().Vector()
	out := make([]float64, d)
	for j := 0; j < d; j++ {
		var means []float64
		for l := 0; l < levels; l++ {
			x := append([]float64(nil), base...)
			x[j] = (float64(l) + 0.5) / float64(levels)
			var s float64
			for r := 0; r < reps; r++ {
				s += target.Run(space.FromVector(x)).Objective()
			}
			means = append(means, s/float64(reps))
		}
		out[j] = stat.Max(means) - stat.Min(means)
	}
	return out
}

// rankingQuality returns the Spearman correlation between a claimed ranking
// (names, most important first) and ground-truth effects.
func rankingQuality(space *tune.Space, ranking []string, truth []float64) float64 {
	// Convert ranking to scores: position 0 = highest score.
	scores := make([]float64, space.Dim())
	for pos, name := range ranking {
		if i := space.IndexOf(name); i >= 0 {
			scores[i] = float64(len(ranking) - pos)
		}
	}
	return stat.Spearman(scores, truth)
}

// Table2 regenerates the paper's Table 2 with measured outcomes: every
// surveyed DBMS tuning approach re-implemented and exercised on the DBMS
// simulator against its own target problem (ranking quality, misconfiguration
// detection, prediction error, or tuning speedup).
func Table2(o Options) (*Table, error) {
	t := &Table{
		Title: "E3 (Table 2): DBMS parameter-tuning approaches, reproduced and measured",
		Columns: []string{
			"category", "approach", "methodology", "target problem", "measured outcome",
		},
	}
	ctx := context.Background()
	b := o.budget()
	scale := o.scaleGB(6, 1.5)
	topts := repro.TargetOptions{ScaleGB: scale}
	seed := o.Seed + 40

	// targets[i] runs on seed+i: the measurement blocks use 0, 1, 2, 5 and 7,
	// and each tuning session below builds its own.
	var targets [8]tune.Target
	for i := range targets {
		var err error
		if targets[i], err = repro.NewTarget("dbms", "mixed", seed+int64(i), topts); err != nil {
			return nil, err
		}
	}
	def := DefaultTime(targets[0], 3)

	gtLevels, gtReps := 5, 2
	if o.Fast {
		gtLevels, gtReps = 3, 1
	}
	truth := groundTruthImportance(targets[1], gtLevels, gtReps)
	space := targets[1].Space()

	// Every plain tuning approach is a session on its own target (seed+i),
	// run up front; the bespoke measurement blocks below stay inline.
	repo, err := BuildRepository(o, "dbms", "mixed")
	if err != nil {
		return nil, err
	}
	tuned := []struct {
		i     int64
		tuner string
	}{{3, "navigator"}, {4, "stmm"}, {6, "addm"}, {8, "adaptive-sampling"}, {9, "ituned"}, {10, "neural"}, {11, "ottertune"}, {12, "colt"}}
	var cells []cell
	for _, c := range tuned {
		cells = append(cells, cell{spec: repro.Spec{
			System: "dbms", Workload: "mixed", Tuner: c.tuner, Seed: seed + c.i, Budget: b, Target: topts,
		}, corpus: repo})
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	by := map[string]session{}
	for k, c := range tuned {
		by[c.tuner] = sessions[k]
	}
	tuneOutcome := func(tuner string) string {
		s := by[tuner]
		return fmt.Sprintf("%s speedup in %d runs", fmtSpeedup(speedup(def, s.bestTime())), len(s.result.Trials))
	}

	// --- SPEX: misconfiguration detection --------------------------------
	{
		checker := rulebased.DBMSChecker()
		target := targets[2]
		specs := target.(tune.SpecProvider).Specs()
		rng := rand.New(rand.NewSource(o.Seed + 41))
		n := 120
		if o.Fast {
			n = 40
		}
		var tp, fp, fn, tn int
		for i := 0; i < n; i++ {
			cfg := target.Space().Random(rng)
			flagged := len(checker.Validate(cfg, specs)) > 0
			res := target.Run(cfg)
			bad := res.Failed || res.Metrics["mem_oversubscription"] > 1
			switch {
			case flagged && bad:
				tp++
			case flagged && !bad:
				fp++
			case !flagged && bad:
				fn++
			default:
				tn++
			}
		}
		precision := 0.0
		if tp+fp > 0 {
			precision = float64(tp) / float64(tp+fp)
		}
		recall := 0.0
		if tp+fn > 0 {
			recall = float64(tp) / float64(tp+fn)
		}
		t.AddRow("Rule-based", "SPEX [27]", "Constraint inference", "Avoid error-prone configs",
			fmt.Sprintf("detects bad configs: precision %.2f recall %.2f (n=%d)", precision, recall, n))
	}

	// --- Tianyin: parameter ranking by navigation -------------------------
	{
		ranking := space.ByImpact()
		rho := rankingQuality(space, ranking, truth)
		out := tuneOutcome("navigator")
		t.AddRow("Rule-based", "Tianyin [26]", "Configuration navigation", "Ranking the effects of parameters",
			fmt.Sprintf("doc-impact ranking ρ=%.2f vs ground truth; %s", rho, out))
	}

	// --- STMM -------------------------------------------------------------
	t.AddRow("Cost modeling", "STMM [22]", "Cost-benefit analysis", "Tuning, Recommendation",
		tuneOutcome("stmm"))

	// --- Dushyanth: trace-based prediction ---------------------------------
	{
		target := targets[5]
		specs := target.(tune.SpecProvider).Specs()
		probe := target.Run(target.Space().Default())
		tr := simulation.TraceFromMetrics(probe.Metrics, specs)
		rng := rand.New(rand.NewSource(o.Seed + 42))
		n := 20
		if o.Fast {
			n = 8
		}
		var pred, actual []float64
		for i := 0; i < n; i++ {
			cfg := target.Space().Random(rng)
			pred = append(pred, trace.Replay(tr, simulation.ResourcesFor(cfg, specs)))
			actual = append(actual, target.Run(cfg).Time)
		}
		mape := stat.MAPE(pred, actual)
		corr := stat.Spearman(pred, actual)
		t.AddRow("Simulation", "Dushyanth [17]", "Trace-based simulation", "Prediction",
			fmt.Sprintf("replay prediction: rank-corr %.2f, MAPE %.0f%% (n=%d)", corr, mape*100, n))
	}

	// --- ADDM ---------------------------------------------------------------
	t.AddRow("Simulation", "ADDM [8]", "DAG model & simulation", "Profiling, Tuning",
		tuneOutcome("addm"))

	// --- SARD: screening quality ---------------------------------------------
	{
		sard := experiment.NewSARD(o.Seed + 43)
		ranking, _, err := sard.Screen(ctx, targets[7], b)
		out := "error"
		if err == nil {
			rho := rankingQuality(space, ranking, truth)
			out = fmt.Sprintf("P&B ranking ρ=%.2f vs ground truth; top-3: %s, %s, %s",
				rho, ranking[0], ranking[1], ranking[2])
		}
		t.AddRow("Experiment-driven", "SARD [7]", "P&B statistical design", "Ranking the effects of parameters", out)
	}

	// --- Shivnath adaptive sampling -------------------------------------------
	t.AddRow("Experiment-driven", "Shivnath [3]", "Adaptive sampling", "Profiling, Tuning",
		tuneOutcome("adaptive-sampling"))

	// --- iTuned ------------------------------------------------------------------
	t.AddRow("Experiment-driven", "iTuned [9]", "LHS & Gaussian Process", "Profiling, Tuning",
		tuneOutcome("ituned"))

	// --- Rodd NN -------------------------------------------------------------------
	t.AddRow("Machine learning", "Rodd [19]", "Neural Networks", "Tuning, Recommendation",
		tuneOutcome("neural"))

	// --- OtterTune --------------------------------------------------------------------
	{
		out := tuneOutcome("ottertune")
		s := by["ottertune"]
		if wl := s.job.Tuner.(*ml.OtterTune).MappedWorkload("dbms", s.result.Trials); wl != "" {
			out += fmt.Sprintf("; mapped to %q", wl)
		}
		t.AddRow("Machine learning", "OtterTune [24]", "Gaussian Process", "Tuning, Recommendation", out)
	}

	// --- COLT -------------------------------------------------------------------------
	{
		s := by["colt"]
		r := s.result
		out := "no online runs"
		if len(r.Trials) > 0 {
			first := r.Trials[0].Result.Time
			last := r.Trials[len(r.Trials)-1].Result.Time
			out = fmt.Sprintf("online runs improve %s → %s (default %s); converged config %s",
				fmtSeconds(first), fmtSeconds(last), fmtSeconds(def),
				fmtSpeedup(speedup(def, s.job.Target.Run(r.Best).Time)))
		}
		t.AddRow("Adaptive", "COLT [20]", "Cost Vs. Gain analysis", "Profiling, Tuning", out)
	}

	t.Note("workload: mixed (%0.1f GB), budget %d trials; ground truth from one-at-a-time sweeps", scale, b.Trials)
	return t, nil
}
