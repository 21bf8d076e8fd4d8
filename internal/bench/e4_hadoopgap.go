package bench

import (
	"repro"
	"repro/internal/tune"
)

// HadoopGap regenerates the §2.3 claim: in the Pavlo et al. comparison a
// best-practices Hadoop trailed parallel databases by 3.1–6.5× on
// grep/aggregation/join, stock defaults were far worse, and subsequent
// tuning studies closed most of the gap. Rows are the three benchmark
// tasks; columns compare the parallel database against Hadoop at three
// configuration levels.
func HadoopGap(o Options) (*Table, error) {
	t := &Table{
		Title: "E4 (§2.3): Hadoop vs parallel DB on the Pavlo benchmark",
		Columns: []string{
			"task", "parallel db", "hadoop stock", "stock gap",
			"hadoop practices", "practices gap", "hadoop tuned", "tuned gap",
		},
	}
	topts := repro.TargetOptions{ScaleGB: o.scaleGB(20, 3)}
	tasks := []string{"grep", "aggregation", "join"}

	// Per task: the rulebook's one recommendation ("practices") and an iTuned
	// search, each a session on its own target.
	var cells []cell
	for i, task := range tasks {
		seed := o.Seed + int64(i)*17
		practices := repro.Spec{System: "hadoop", Workload: task, Tuner: "rules", Seed: seed + 3, Budget: tune.Budget{Trials: 1}, Target: topts}
		tuned := practices
		tuned.Tuner, tuned.Seed, tuned.Budget = "ituned", seed+4, o.budget()
		cells = append(cells, cell{spec: practices}, cell{spec: tuned})
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}

	var gaps []float64
	for i, task := range tasks {
		seed := o.Seed + int64(i)*17
		pdb, err := repro.NewTarget("paralleldb", task, seed+1, topts)
		if err != nil {
			return nil, err
		}
		stock, err := repro.NewTarget("hadoop", task, seed+2, topts)
		if err != nil {
			return nil, err
		}
		pdbTime := DefaultTime(pdb, 3)
		stockTime := DefaultTime(stock, 3)
		practicesTime := sessions[2*i].bestTime()
		tunedTime := sessions[2*i+1].bestTime()

		gap := speedup(practicesTime, pdbTime)
		gaps = append(gaps, gap)
		t.AddRow(task,
			fmtSeconds(pdbTime),
			fmtSeconds(stockTime), fmtSpeedup(speedup(stockTime, pdbTime)),
			fmtSeconds(practicesTime), fmtSpeedup(gap),
			fmtSeconds(tunedTime), fmtSpeedup(speedup(tunedTime, pdbTime)),
		)
	}
	t.Note("paper band: best-practices Hadoop trails the parallel DB by 3.1–6.5×; tuning narrows it")
	t.Note("measured practices gaps: %s / %s / %s", fmtSpeedup(gaps[0]), fmtSpeedup(gaps[1]), fmtSpeedup(gaps[2]))
	return t, nil
}
