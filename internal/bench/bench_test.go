package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/tune"
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

// TestRunNamesTheFailingCell: a cell whose spec is refused — by Validate or
// while its job is built — fails the experiment, without a panic, with an
// error naming the experiment and the cell.
func TestRunNamesTheFailingCell(t *testing.T) {
	ok := repro.Spec{System: "dbms", Workload: "tpch", Tuner: "random", Seed: 1, Budget: tune.Budget{Trials: 2}}
	invalid := ok
	invalid.Budget.Trials = 0 // Validate: budget.trials > 0
	unbuildable := ok
	unbuildable.Tuner = "starfish" // JobWithWarm: a Hadoop cost model on a DBMS
	for name, bad := range map[string]repro.Spec{"invalid": invalid, "unbuildable": unbuildable} {
		exp := "broken-" + name
		registry[exp] = Experiment{Name: exp, Run: func(o Options) (*Table, error) {
			if _, err := runCells(o, []cell{{spec: ok}, {spec: bad}, {spec: ok}}); err != nil {
				return nil, err
			}
			return &Table{}, nil
		}}
		_, err := Run(exp, fastOpts())
		delete(registry, exp)
		if err == nil {
			t.Fatalf("%s: the experiment ran", name)
		}
		for _, want := range []string{exp, "cell 1 (" + bad.Name() + ")"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", name, err, want)
			}
		}
	}
}

func fastOpts() Options { return Options{Seed: 1, Budget: 8, Fast: true} }

// mustRun runs exp and fails the test on error.
func mustRun(t *testing.T, exp func(Options) (*Table, error), o Options) *Table {
	t.Helper()
	tb, err := exp(o)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestMotivationFast(t *testing.T) {
	tb := mustRun(t, Motivation, fastOpts())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestHadoopGapFast(t *testing.T) {
	tb := mustRun(t, HadoopGap, fastOpts())
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
	tb := mustRun(t, Realtime, fastOpts())
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestTable2Fast(t *testing.T) {
	tb := mustRun(t, Table2, fastOpts())
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
	tb := mustRun(t, Table1, fastOpts())
	if len(tb.Rows) != 6 {
		t.Fatalf("Table 1 must have 6 category rows, got %d", len(tb.Rows))
	}
}

func TestRepositoriesBuild(t *testing.T) {
	o := fastOpts()
	if repo, err := BuildRepository(o, "dbms", "tpch"); err != nil || len(repo.Sessions) == 0 {
		t.Errorf("dbms repo empty (err %v)", err)
	}
	if repo, err := BuildRepository(o, "hadoop", ""); err != nil || len(repo.Sessions) != 6 {
		t.Errorf("hadoop repo: %v, want 6 sessions (err %v)", repo, err)
	}
	repo, err := BuildRepository(o, "dbms", "oltp")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range repo.Sessions {
		if strings.HasPrefix(s.Workload, "oltp") {
			t.Error("excluded workload present in repo")
		}
	}
	if _, err := BuildRepository(o, "paralleldb", ""); err == nil {
		t.Error("a system without past workloads built a repository")
	}
}

// TestTablesIdenticalAtAnyParallel: every cell owns its target and seed, so
// every experiment renders byte for byte the same tables at any scheduler
// width — E11's three wall-clock columns aside.
func TestTablesIdenticalAtAnyParallel(t *testing.T) {
	render := func(e Experiment, parallel int) string {
		o := fastOpts()
		o.Parallel = parallel
		tb := mustRun(t, e.Run, o)
		if e.Name == "surrogate" {
			for _, row := range tb.Rows {
				row[2], row[3], row[5] = "-", "-", "-"
			}
		}
		var b bytes.Buffer
		tb.Render(&b)
		return b.String()
	}
	for _, e := range Experiments() {
		if one, four := render(e, 1), render(e, 4); one != four {
			t.Errorf("%s differs between -parallel 1 and 4:\n%s\n%s", e.Name, one, four)
		}
	}
}

// The asserted wins below are measured at the benchtab defaults (budget 30,
// full scale) over seeds 1–16, and each asserts the statistic at the
// strength it holds across those seeds, with a margin below the reading its
// doc comment records.
const winSeeds = 16

// overSeeds runs exp at the benchtab defaults at seeds 1–winSeeds and returns
// the tables in seed order.
func overSeeds(t *testing.T, exp func(Options) (*Table, error)) []*Table {
	t.Helper()
	out := make([]*Table, winSeeds)
	for i := range out {
		tb, err := exp(Options{Seed: int64(i + 1), Budget: 30, Parallel: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", i+1, err)
		}
		out[i] = tb
	}
	return out
}

// scan parses one table cell with format, failing the test on a mismatch.
func scan[T any](t *testing.T, cell, format string) T {
	t.Helper()
	var v T
	if _, err := fmt.Sscanf(cell, format, &v); err != nil {
		t.Fatalf("cell %q does not match %q: %v", cell, format, err)
	}
	return v
}

// seconds parses a fmtSeconds cell ("59.0s", "13.5m", "2.0h").
func seconds(t *testing.T, cell string) float64 {
	t.Helper()
	unit := map[byte]float64{'s': 1, 'm': 60, 'h': 3600}[cell[len(cell)-1]]
	return scan[float64](t, cell[:len(cell)-1], "%f") * unit
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// TestTransferWarmStartOftenBeatsCold pins the repository-reuse claim at
// the strength it holds: a warm start reaches the cold run's final incumbent
// in fewer trials than the cold run needed at most seeds for OtterTune
// (12/16, whose warm session also maps onto the repository) but only at
// some for iTuned (8/16) — a transferred basin is a coin flip for a search
// that cannot tell a similar workload from a dissimilar one (DESIGN.md §10).
func TestTransferWarmStartOftenBeatsCold(t *testing.T) {
	wins := map[string]int{}
	for _, tb := range overSeeds(t, Transfer) {
		if len(tb.Rows) != 4 {
			t.Fatalf("rows = %d", len(tb.Rows))
		}
		for r := 0; r < 4; r += 2 {
			cold, warm := tb.Rows[r], tb.Rows[r+1]
			if cold[1] != "cold" || warm[1] != "warm" || cold[0] != warm[0] {
				t.Fatalf("row structure wrong: %v / %v", cold, warm)
			}
			if warm[3] != "never" && (cold[3] == "never" || scan[int](t, warm[3], "%d") < scan[int](t, cold[3], "%d")) {
				wins[cold[0]]++
			}
		}
	}
	for approach, least := range map[string]int{"iTuned": 5, "OtterTune": 10} {
		if wins[approach] < least {
			t.Errorf("%s: warm beat cold at %d/%d seeds, want ≥ %d", approach, wins[approach], winSeeds, least)
		}
	}
}

// TestFidelityReachesIncumbentAtHalfCost pins the multi-fidelity claim:
// Hyperband-iTuned reaches the full-fidelity run's final incumbent (within
// the experiment's 10% parity tolerance) for at most half the evaluation cost
// the full-fidelity run spends in total at 12/16 seeds (never at the other
// 4). Every variant records its full trial budget and both schedules
// early-stop real trials, at every seed.
func TestFidelityReachesIncumbentAtHalfCost(t *testing.T) {
	atHalf := 0
	for i, tb := range overSeeds(t, Fidelity) {
		if len(tb.Rows) != 3 || tb.Rows[0][0] != "iTuned (full fidelity)" || tb.Rows[1][0] != "Hyperband-iTuned" {
			t.Fatalf("row structure wrong: %v", tb.Rows)
		}
		for _, row := range tb.Rows {
			if row[1] != "30" {
				t.Errorf("seed %d: %s recorded %s trials, want the full budget of 30", i+1, row[0], row[1])
			}
		}
		for _, row := range tb.Rows[1:] {
			if scan[int](t, row[3], "%d") == 0 {
				t.Errorf("seed %d: %s pruned no trials", i+1, row[0])
			}
		}
		if hb := tb.Rows[1][7]; hb != "—" && scan[float64](t, hb, "%f%%") <= 50 {
			atHalf++
		}
	}
	if atHalf < 10 {
		t.Errorf("Hyperband reached parity at ≤ 50%% of the full run's cost at %d/%d seeds, want ≥ 10", atHalf, winSeeds)
	}
}

// TestDriftDetectionReducesRegret pins the drift claim: after the oltp→olap
// shift the detector fires (16/16 seeds; the baseline never does) and the
// drift-detecting session's deployed regret beats the baseline's at 12/16
// seeds, with a median reduction of 40%.
func TestDriftDetectionReducesRegret(t *testing.T) {
	var reductions []float64
	fired, reduced := 0, 0
	for i, tb := range overSeeds(t, Drift) {
		if len(tb.Rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(tb.Rows))
		}
		base, det := tb.Rows[0], tb.Rows[1]
		if base[2] != "0" {
			t.Errorf("seed %d: baseline reported detections: %v", i+1, base)
		}
		if scan[int](t, det[2], "%d") > 0 {
			fired++
		}
		r := scan[float64](t, det[5], "%f%%")
		if r > 0 {
			reduced++
		}
		reductions = append(reductions, r)
	}
	if fired < 14 || reduced < 10 || median(reductions) < 20 {
		t.Errorf("detector fired at %d/%d seeds (want ≥ 14), reduced regret at %d (want ≥ 10), median reduction %.0f%% (want ≥ 20%%)",
			fired, winSeeds, reduced, median(reductions))
	}
}

// TestParetoSweepGainsHypervolume pins the multi-objective claim at the
// strength it holds: the weighted sweep's front covers more normalized
// hypervolume than the latency-only session's at 10/16 seeds (median gain
// +1.9%), and the gain is not bought by giving up the latency corner — the
// sweep's best latency is at most the single-objective best at 10/16 seeds,
// and 0.985× it in the median.
func TestParetoSweepGainsHypervolume(t *testing.T) {
	gains := 0
	var ratios []float64
	for _, tb := range overSeeds(t, Pareto) {
		if len(tb.Rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(tb.Rows))
		}
		single, multi := tb.Rows[0], tb.Rows[1]
		if scan[float64](t, multi[6], "%f") > scan[float64](t, single[6], "%f") {
			gains++
		}
		ratios = append(ratios, seconds(t, multi[3])/seconds(t, single[3]))
	}
	if gains < 9 || median(ratios) > 1.05 {
		t.Errorf("hypervolume gain at %d/%d seeds (want ≥ 9), median best-latency ratio %.3f (want ≤ 1.05)",
			gains, winSeeds, median(ratios))
	}
}

// TestGuardrailCutsViolations pins the safety claim at the strength it
// holds: the screened session violates the guardrail no more often than the
// unguarded one at 16/16 seeds and a third as often in total (12 vs 37
// violations), and the screen does not cost the incumbent — the guarded best
// is +0.2% off the unguarded best in the median. Zero violations is not the
// claim: it holds at only 5/16 seeds, since the screen's cold start
// (tune.GuardrailMinObs unscreened trials) is its documented residual risk.
func TestGuardrailCutsViolations(t *testing.T) {
	fewer, guardedTotal, unguardedTotal := 0, 0, 0
	var vs []float64
	for _, tb := range overSeeds(t, Guardrail) {
		if len(tb.Rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(tb.Rows))
		}
		unguarded, guarded := tb.Rows[0], tb.Rows[1]
		uv, gv := scan[int](t, unguarded[2], "%d"), scan[int](t, guarded[2], "%d")
		if gv <= uv {
			fewer++
		}
		guardedTotal += gv
		unguardedTotal += uv
		vs = append(vs, scan[float64](t, guarded[5], "%f%%"))
	}
	if fewer < 15 || 2*guardedTotal > unguardedTotal || median(vs) > 5 {
		t.Errorf("guarded ≤ unguarded violations at %d/%d seeds (want ≥ 15), %d vs %d in total (want at most half), median best %+.1f%% vs unguarded (want ≤ +5%%)",
			fewer, winSeeds, guardedTotal, unguardedTotal, median(vs))
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
	tb := mustRun(t, Surrogate, fastOpts())
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

func TestReferenceBeatsDefault(t *testing.T) {
	target, err := repro.NewTarget("dbms", "tpch", 3, repro.TargetOptions{ScaleGB: 2})
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultTime(target, 2)
	_, best, err := Reference(target, 3, 25)
	if err != nil {
		t.Fatal(err)
	}
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
