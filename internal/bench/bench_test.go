package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("longer", "v")
	tb.Note("footnote %d", 7)
	var out bytes.Buffer
	tb.Render(&out)
	s := out.String()
	for _, want := range []string{"=== demo ===", "longer", "footnote 7", "1.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q in:\n%s", want, s)
		}
	}
	var csvOut bytes.Buffer
	if err := tb.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvOut.String(), "a,bb\n") {
		t.Errorf("csv = %q", csvOut.String())
	}
}

func TestRegistryListsAllExperiments(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(exps))
	}
	names := map[string]bool{}
	for _, e := range exps {
		names[e.Name] = true
		if e.Doc == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
	for _, want := range []string{"motivation", "table1", "table2", "hadoopgap", "sparkparams", "heterogeneity", "cloud", "realtime", "transfer", "fidelity", "surrogate", "drift", "pareto", "guardrail"} {
		if !names[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func fastOpts() Options { return Options{Seed: 1, Budget: 8, Fast: true} }

func TestMotivationFast(t *testing.T) {
	tb := Motivation(fastOpts())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestHadoopGapFast(t *testing.T) {
	tb := HadoopGap(fastOpts())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if !strings.HasSuffix(row[3], "x") {
			t.Errorf("gap column malformed: %v", row)
		}
	}
}

func TestRealtimeFast(t *testing.T) {
	tb := Realtime(fastOpts())
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestTable2Fast(t *testing.T) {
	tb := Table2(fastOpts())
	if len(tb.Rows) != 11 {
		t.Fatalf("Table 2 must have 11 approach rows, got %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if strings.Contains(row[4], "error") {
			t.Errorf("approach %s errored: %s", row[1], row[4])
		}
	}
}

func TestTable1Fast(t *testing.T) {
	tb := Table1(fastOpts())
	if len(tb.Rows) != 6 {
		t.Fatalf("Table 1 must have 6 category rows, got %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[2:] {
			if cell == "err" {
				t.Errorf("category %s has error cell: %v", row[0], row)
			}
		}
	}
}

func TestRepositoriesBuild(t *testing.T) {
	o := fastOpts()
	if repo := BuildDBMSRepository(o, "tpch"); len(repo.Sessions) == 0 {
		t.Error("dbms repo empty")
	}
	if repo := BuildHadoopRepository(o, ""); len(repo.Sessions) != 6 {
		t.Errorf("hadoop repo sessions = %d, want 6", len(repo.Sessions))
	}
	repo := BuildDBMSRepository(o, "oltp")
	for _, s := range repo.Sessions {
		if strings.HasPrefix(s.Workload, "oltp") {
			t.Error("excluded workload present in repo")
		}
	}
}

// TestTransferWarmBeatsCold pins the repository-reuse acceptance claim at
// the benchtab defaults (seed 42, budget 30, full scale — still fast on the
// simulators): the warm-started session reaches the cold run's incumbent in
// strictly fewer trials than the cold run itself needed, for both iTuned
// and OtterTune. Fast mode deliberately is not asserted: with 8-trial
// history sessions and a 12-trial budget there is too little knowledge to
// transfer, which is part of the story (DESIGN.md §10).
func TestTransferWarmBeatsCold(t *testing.T) {
	tb := Transfer(Options{Seed: 42, Budget: 30})
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	reach := func(row []string) int {
		if row[3] == "never" {
			return 0
		}
		var n int
		fmt.Sscanf(row[3], "%d", &n)
		return n
	}
	for i := 0; i < 4; i += 2 {
		cold, warm := tb.Rows[i], tb.Rows[i+1]
		if cold[1] != "cold" || warm[1] != "warm" || cold[0] != warm[0] {
			t.Fatalf("row structure wrong: %v / %v", cold, warm)
		}
		cr, wr := reach(cold), reach(warm)
		if wr == 0 || wr >= cr {
			t.Errorf("%s: warm reached the cold incumbent at trial %d, cold at %d — transfer did not help",
				cold[0], wr, cr)
		}
	}
}

// TestFidelityReachesIncumbentAtHalfCost pins the multi-fidelity
// acceptance claim at the benchtab defaults (seed 42, budget 30):
// Hyperband-iTuned reaches the full-fidelity run's final incumbent (within
// the experiment's 10% parity tolerance) at no more than half the
// evaluation cost the full-fidelity run spends in total — and the
// comparison is meaningful because every variant records its full trial
// budget.
func TestFidelityReachesIncumbentAtHalfCost(t *testing.T) {
	tb := Fidelity(Options{Seed: 42, Budget: 30})
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	if tb.Rows[0][0] != "iTuned (full fidelity)" || tb.Rows[1][0] != "Hyperband-iTuned" {
		t.Fatalf("row structure wrong: %v", tb.Rows)
	}
	ratio := func(row []string) float64 {
		if row[7] == "—" {
			return -1
		}
		var pct float64
		fmt.Sscanf(row[7], "%f%%", &pct)
		return pct / 100
	}
	hb := ratio(tb.Rows[1])
	if hb < 0 {
		t.Fatalf("Hyperband never reached the full-fidelity incumbent: %v", tb.Rows[1])
	}
	if hb > 0.5 {
		t.Errorf("Hyperband reached the incumbent at %.0f%% of the full run's cost, want ≤ 50%%", 100*hb)
	}
	for _, row := range tb.Rows {
		if row[1] != "30" {
			t.Errorf("%s recorded %s trials, want the full budget of 30", row[0], row[1])
		}
	}
	// The multi-fidelity rows early-stopped real trials.
	for _, row := range tb.Rows[1:] {
		var pruned int
		fmt.Sscanf(row[3], "%d", &pruned)
		if pruned == 0 {
			t.Errorf("%s pruned no trials", row[0])
		}
	}
}

// TestSurrogateFast checks the E11 table's structure and its deterministic
// columns: every tier row is present at every n, the cheap tiers agree with
// the exact GP to a usable tolerance, and the exact row's speedup is exactly
// 1× (it is its own baseline). Wall-clock columns are only checked for shape
// — CI hosts are too noisy to assert on absolute timings here; fit cost per
// tier is measured by BenchmarkSurrogateFit (internal/mathx/gp) and the
// gp.fit_ms_* rows of `go run ./benchmark`.
func TestSurrogateFast(t *testing.T) {
	tb := Surrogate(fastOpts())
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 tiers × 2 sizes", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if !strings.HasSuffix(row[2], "ms") || !strings.HasSuffix(row[3], "ms") {
			t.Errorf("row %d timing columns malformed: %v", i, row)
		}
		if !strings.HasSuffix(row[5], "x") {
			t.Errorf("row %d speedup malformed: %v", i, row)
		}
		var rmse float64
		fmt.Sscanf(row[4], "%f", &rmse)
		switch {
		case i%3 == 0: // exact row: zero self-disagreement, unit speedup
			if rmse != 0 || row[5] != "1.00x" {
				t.Errorf("exact row self-comparison wrong: %v", row)
			}
		default: // sparse/rff rows approximate the exact posterior
			if rmse > 2.0 {
				t.Errorf("row %d disagrees with the exact GP (rmse %.3f): %v", i, rmse, row)
			}
		}
	}
}

// TestDriftDetectionReducesRegret pins the drift-scenario acceptance claim
// at the benchtab defaults (seed 42, budget 30): after the oltp→olap shift,
// the drift-detecting variant's deployed regret-over-time beats the
// no-detection baseline, and it actually detected something (the baseline,
// by construction, detects nothing).
func TestDriftDetectionReducesRegret(t *testing.T) {
	tb := Drift(Options{Seed: 42, Budget: 30})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	base, det := tb.Rows[0], tb.Rows[1]
	if base[2] != "0" {
		t.Errorf("baseline reported detections: %v", base)
	}
	var detections int
	fmt.Sscanf(det[2], "%d", &detections)
	if detections == 0 {
		t.Errorf("detector never fired: %v", det)
	}
	var reduction float64
	if _, err := fmt.Sscanf(det[5], "%f%%", &reduction); err != nil {
		t.Fatalf("regret reduction column malformed: %v", det)
	}
	if reduction <= 0 {
		t.Errorf("drift detection did not reduce deployed regret (reduction %.0f%%): base %v det %v",
			reduction, base, det)
	}
}

// TestParetoFrontDominates pins the multi-objective acceptance claim at the
// benchtab defaults (seed 42; the experiment raises the budget floor to 60):
// the weighted sweep's front dominates the single-objective session's — more
// normalized hypervolume AND an equal-or-better best latency, so the gain is
// not bought by giving up the corner a latency-only search optimizes.
func TestParetoFrontDominates(t *testing.T) {
	tb := Pareto(Options{Seed: 42, Budget: 30})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	single, multi := tb.Rows[0], tb.Rows[1]
	hv := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[6], "%f", &v); err != nil {
			t.Fatalf("hypervolume column malformed: %v", row)
		}
		return v
	}
	if hv(multi) <= hv(single) {
		t.Errorf("multi-objective front does not dominate: hv %.4f vs single %.4f", hv(multi), hv(single))
	}
	best := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[3], "%f", &v); err != nil {
			t.Fatalf("best latency column malformed: %v", row)
		}
		return v
	}
	// Both render in seconds at this scale; parse defensively anyway.
	if strings.HasSuffix(single[3], "s") && strings.HasSuffix(multi[3], "s") {
		if best(multi) > best(single) {
			t.Errorf("sweep gave up the latency corner: best %s vs single %s", multi[3], single[3])
		}
	}
}

// TestGuardrailZeroViolations pins the safety acceptance claim at the
// benchtab defaults (seed 42, budget 30): the screened session completes
// with ZERO guardrail violations while the unguarded one pays several, and
// the screen does not cost the incumbent — the guarded best is
// equal-or-better than the unguarded best.
func TestGuardrailZeroViolations(t *testing.T) {
	tb := Guardrail(Options{Seed: 42, Budget: 30})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	unguarded, guarded := tb.Rows[0], tb.Rows[1]
	var uv, gv int
	fmt.Sscanf(unguarded[2], "%d", &uv)
	fmt.Sscanf(guarded[2], "%d", &gv)
	if uv == 0 {
		t.Errorf("unguarded session saw no violations — the hazard vanished: %v", unguarded)
	}
	if gv != 0 {
		t.Errorf("guarded session violated the guardrail %d times: %v", gv, guarded)
	}
	var vs float64
	if _, err := fmt.Sscanf(guarded[5], "%f%%", &vs); err != nil {
		t.Fatalf("vs-unguarded column malformed: %v", guarded)
	}
	if vs > 0 {
		t.Errorf("guarded best is %.1f%% worse than unguarded, want equal-or-better", vs)
	}
}

func TestReferenceBeatsDefault(t *testing.T) {
	target := DBMSTarget(wlTPCH(2), 3)
	def := DefaultTime(target, 2)
	_, best := Reference(target, 3, 25)
	if best >= def {
		t.Errorf("reference %v should beat default %v", best, def)
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtSeconds(30) != "30.0s" || fmtSeconds(90) != "1.5m" || fmtSeconds(7200) != "2.0h" {
		t.Error("fmtSeconds wrong")
	}
	if fmtSpeedup(2) != "2.00x" {
		t.Error("fmtSpeedup wrong")
	}
	if speedup(10, 5) != 2 {
		t.Error("speedup wrong")
	}
}

func wlTPCH(gb float64) *workload.DBWorkload { return workload.TPCHLike(gb) }
