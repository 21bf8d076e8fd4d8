package bench

import (
	"fmt"

	"repro"
)

// Heterogeneity probes the paper's first open challenge (§2.5): tuning over
// heterogeneous hardware. Each approach tunes on a homogeneous cluster; the
// resulting configuration is then transplanted onto a heterogeneous fleet of
// equal aggregate capacity and compared with tuning directly on that fleet.
// Cost models suffer most — their homogeneity assumption is baked in — which
// is exactly the weakness Table 1 lists.
func Heterogeneity(o Options) (*Table, error) {
	t := &Table{
		Title: "E6 (§2.5-1): configuration transfer homogeneous → heterogeneous",
		Columns: []string{
			"approach", "homog tuned", "transplanted", "transfer loss",
			"retuned on hetero", "recovered",
		},
	}
	homog := repro.TargetOptions{ScaleGB: o.scaleGB(40, 4)}
	hetero := homog
	hetero.Heterogeneous = true

	approaches := []struct{ name, tuner string }{
		{"rules", "rules"},
		{"costmodel/starfish", "starfish"},
		{"experiment/ituned", "ituned"},
	}
	// Per approach: a session on the homogeneous cluster and one retuning
	// natively on the heterogeneous fleet.
	var cells []cell
	for i, a := range approaches {
		seed := o.Seed + int64(i+1)*101
		onHomog := repro.Spec{System: "hadoop", Workload: "terasort", Tuner: a.tuner, Seed: seed + 1, Budget: o.budget(), Target: homog}
		onHetero := onHomog
		onHetero.Seed, onHetero.Target = seed+3, hetero
		cells = append(cells, cell{spec: onHomog}, cell{spec: onHetero})
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}

	heteroDefTarget, err := repro.NewTarget("hadoop", "terasort", o.Seed+71, hetero)
	if err != nil {
		return nil, err
	}
	heteroDef := DefaultTime(heteroDefTarget, 3)
	for i, a := range approaches {
		homogRun, retune := sessions[2*i], sessions[2*i+1]
		homogTime := homogRun.bestTime()
		// Transplant the homogeneous configuration onto the heterogeneous fleet.
		heteroTarget, err := repro.NewTarget("hadoop", "terasort", o.Seed+int64(i+1)*101+2, hetero)
		if err != nil {
			return nil, err
		}
		transplanted := averageRun(heteroTarget, homogRun.result.Best, 3)
		retuned := retune.bestTime()

		t.AddRow(a.name,
			fmtSeconds(homogTime),
			fmtSeconds(transplanted),
			fmt.Sprintf("%+.0f%%", (transplanted/homogTime-1)*100),
			fmtSeconds(retuned),
			fmtSpeedup(speedup(transplanted, retuned)),
		)
	}
	t.Note("hetero default: %s; clusters have equal node count (16), mixed beefy/commodity/wimpy", fmtSeconds(heteroDef))
	t.Note("wave scheduling is paced by the weakest node; models assuming the first node's spec mispredict")
	return t, nil
}
