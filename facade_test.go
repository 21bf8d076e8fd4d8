package repro

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/mathx/xrand"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
)

func TestNewTargetAllSystems(t *testing.T) {
	for _, sys := range Systems() {
		for _, wl := range Workloads(sys) {
			target, err := NewTarget(sys, wl, 1, TargetOptions{ScaleGB: 1, Nodes: 4})
			if err != nil {
				t.Errorf("NewTarget(%s, %s): %v", sys, wl, err)
				continue
			}
			res := target.Run(target.Space().Default())
			if res.Time <= 0 {
				t.Errorf("%s/%s: non-positive runtime", sys, wl)
			}
		}
	}
}

// TestEveryTargetKeepsTheRunContract: every registered system/workload pair
// is a pure function of (seed, run index, fidelity, config) — the contract
// that lets the inline evaluator reserve one index per candidate and the
// pool, the fleet and resume name a run by its index. n Run calls on one
// instance equal RunIndexed(1…n) on a fresh twin bit for bit, and for a
// fidelity target RunFidelity equals RunIndexedFidelity the same way. The
// 40 runs cross the drifting workloads' phase boundaries.
func TestEveryTargetKeepsTheRunContract(t *testing.T) {
	const runs, fid = 40, 1.0 / 9
	ctx := context.Background()
	for _, sys := range Systems() {
		for _, wl := range Workloads(sys) {
			build := func() Target {
				target, err := NewTarget(sys, wl, 3)
				if err != nil {
					t.Fatalf("NewTarget(%s, %s): %v", sys, wl, err)
				}
				return target
			}
			seq, twin := build(), build()
			rng := xrand.New(5)
			cfgs := make([]tune.Config, runs)
			for i := range cfgs {
				cfgs[i] = seq.Space().Random(rng)
			}
			for i, cfg := range cfgs {
				if got, want := seq.Run(cfg), twin.RunIndexed(int64(i+1), cfg); !sameRunBits(got, want) {
					t.Errorf("%s/%s: Run call %d = %+v, RunIndexed(%d) = %+v", sys, wl, i+1, got, i+1, want)
				}
			}
			fseq, ok := build().(tune.FidelityTarget)
			if !ok {
				continue
			}
			ftwin := build().(tune.FidelityTarget)
			for i, cfg := range cfgs {
				if got, want := fseq.RunFidelity(ctx, fid, cfg), ftwin.RunIndexedFidelity(ctx, int64(i+1), fid, cfg); !sameRunBits(got, want) {
					t.Errorf("%s/%s: RunFidelity call %d = %+v, RunIndexedFidelity(%d) = %+v", sys, wl, i+1, got, i+1, want)
				}
			}
		}
	}
}

// sameRunBits compares two results field by field, floats by their bits.
func sameRunBits(a, b tune.Result) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Time, b.Time) || !same(a.Cost, b.Cost) || !same(a.Fidelity, b.Fidelity) ||
		a.Failed != b.Failed || a.FailReason != b.FailReason || len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for k, v := range a.Metrics {
		if w, ok := b.Metrics[k]; !ok || !same(v, w) {
			return false
		}
	}
	return true
}

// TestBuiltinWorkloads pins each builtin system's workload list and its
// order, which -list, the daemon and Spec validation all show.
func TestBuiltinWorkloads(t *testing.T) {
	mr := []string{"grep", "aggregation", "join", "wordcount", "terasort"}
	for sys, want := range map[string][]string{
		"dbms":       {"tpch", "oltp", "mixed", "oltp-olap-shift", "diurnal"},
		"hadoop":     mr,
		"spark":      {"wordcount", "terasort", "pagerank", "kmeans", "streaming"},
		"paralleldb": mr,
	} {
		if got := Workloads(sys); !slices.Equal(got, want) {
			t.Errorf("Workloads(%q) = %v, want %v", sys, got, want)
		}
		// Every consumer of a target's name reads its system back with
		// tune.SplitTargetName.
		for _, wl := range want {
			target, err := NewTarget(sys, wl, 1)
			if err != nil {
				t.Fatal(err)
			}
			if s, w := tune.SplitTargetName(target.Name()); s != sys || w != wl {
				t.Errorf("%s/%s: target %q splits to %q, %q", sys, wl, target.Name(), s, w)
			}
		}
	}
}

func TestNewTargetErrors(t *testing.T) {
	if _, err := NewTarget("nosuch", "x", 1); err == nil {
		t.Error("unknown system should error")
	}
	if _, err := NewTarget("dbms", "nosuch", 1); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestNewTargetOptions(t *testing.T) {
	full, err := NewTarget("spark", "wordcount", 1, TargetOptions{FullSparkSpace: true, Nodes: 4, ScaleGB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Space().Dim() < 100 {
		t.Errorf("full spark space dim = %d", full.Space().Dim())
	}
	hetero, err := NewTarget("hadoop", "grep", 1, TargetOptions{Heterogeneous: true, Nodes: 4, ScaleGB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Run(hetero.Space().Default()).Time <= 0 {
		t.Error("hetero target should run")
	}
	noisy, err := NewTarget("dbms", "oltp", 1, TargetOptions{TenantLoad: 0.5, ScaleGB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Run(noisy.Space().Default()).Time <= 0 {
		t.Error("tenant target should run")
	}
}

// TestNewTunerAll builds every registered tuner and pins its form: each has
// exactly one of the three the engine drives, and only the adaptive family's
// controlled-run loop is a tune.BlockingTuner.
func TestNewTunerAll(t *testing.T) {
	var blocking []string
	for _, name := range Tuners() {
		cat, doc, ok := TunerInfo(name)
		if !ok || cat == "" || doc == "" {
			t.Errorf("TunerInfo(%q) incomplete", name)
		}
		opts := TunerOptions{Seed: 1, TargetName: "dbms/tpch"}
		if name == "scaled-proxy" {
			proxy, _ := NewTarget("dbms", "tpch", 2, TargetOptions{ScaleGB: 0.5})
			opts.Proxy = proxy
		}
		tuner, err := NewTuner(name, opts)
		if err != nil {
			t.Errorf("NewTuner(%q): %v", name, err)
			continue
		}
		_, fidelity := tuner.(tune.FidelityBatchTuner)
		_, askTell := tuner.(tune.BatchTuner)
		_, block := tuner.(tune.BlockingTuner)
		forms := 0
		for _, has := range []bool{fidelity, askTell, block} {
			if has {
				forms++
			}
		}
		if forms != 1 {
			t.Errorf("%s has %d forms (fidelity ask/tell %v, ask/tell %v, blocking %v), want exactly one",
				name, forms, fidelity, askTell, block)
		}
		if block {
			blocking = append(blocking, name)
		}
	}
	if want := []string{"colt", "memory-manager", "partitions", "recommender"}; !slices.Equal(blocking, want) {
		t.Errorf("blocking tuners %v, want the adaptive family %v", blocking, want)
	}
	if _, err := NewTuner("nosuch", TunerOptions{}); err == nil {
		t.Error("unknown tuner should error")
	}
	if _, err := NewTuner("scaled-proxy", TunerOptions{}); err == nil {
		t.Error("scaled-proxy without proxy should error")
	}
}

func TestEndToEndThroughFacade(t *testing.T) {
	target, err := NewTarget("dbms", "tpch", 5, TargetOptions{ScaleGB: 2})
	if err != nil {
		t.Fatal(err)
	}
	def := target.Run(target.Space().Default())
	tn, err := NewTuner("ituned", TunerOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Tune(context.Background(), target, tn, tune.Budget{Trials: 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.BestResult.Time >= def.Time {
		t.Errorf("tuning did not improve: %v vs %v", r.BestResult.Time, def.Time)
	}
}

// TestTuneIsOneJob: there is one way to configure a session. Tune at any
// parallelism and the spec's Job submitted to an engine return the same
// result — a fidelity schedule included.
func TestTuneIsOneJob(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []Spec{
		{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: 5, Budget: Budget{Trials: 14}},
		{System: "dbms", Workload: "tpch", Tuner: "random", Seed: 5, Budget: Budget{Trials: 30},
			Fidelity: &FidelitySpec{Strategy: "hyperband"}},
	} {
		var first string // Tune at parallel 1
		for _, p := range []int{1, 4} {
			spec.Parallel = p
			job := func() Job {
				job, err := spec.Job()
				if err != nil {
					t.Fatal(err)
				}
				return job
			}
			result := func(res *TuningResult, err error) string {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}
			j := job()
			tuned := result(Tune(ctx, j.Target, j.Tuner, j.Budget, p))
			if first == "" {
				first = tuned
			} else if tuned != first {
				t.Errorf("%s: Tune at parallel %d differs from parallel 1:\n  %s\n  %s", spec.Name(), p, tuned, first)
			}
			if got := result(NewEngine(EngineOptions{}).Submit(job()).Wait(ctx)); got != tuned {
				t.Errorf("%s at parallel %d: the spec's Job differs from Tune:\n  %s\n  %s", spec.Name(), p, got, tuned)
			}
		}
	}
}

// TestScenarioWrappersDeclareTheScenario: the proposer stack is where a
// session's scenario is declared, so Tune over a guardrail or multi-objective
// wrapper built by hand reports what Start reports for the equivalent Spec —
// the same violations, the same front, the same result — and a Job carrying
// the wrapper emits the same event stream.
func TestScenarioWrappersDeclareTheScenario(t *testing.T) {
	const seed = 17
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		spec  Spec
		tuner func() (tune.BatchTuner, error)
	}{
		{"guardrail", Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: seed, Budget: Budget{Trials: 14}, Guardrail: 150},
			func() (tune.BatchTuner, error) { return tune.GuardrailTuner(experiment.NewITuned(seed), 150) }},
		{"pareto", Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: seed, Budget: Budget{Trials: 16}, Pareto: true},
			func() (tune.BatchTuner, error) {
				var subs []tune.BatchTuner
				for i := range tune.DefaultParetoWeights {
					subs = append(subs, experiment.NewITuned(seed+int64(i)))
				}
				return tune.MultiObjectiveTuner(subs, tune.DefaultParetoWeights)
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			stream := func(run *Run) (events []string, res *TuningResult) {
				t.Helper()
				for ev := range run.Events() {
					data, err := json.Marshal(ev)
					if err != nil {
						t.Fatal(err)
					}
					events = append(events, string(data))
				}
				res, err := run.Wait(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return events, res
			}
			target := func() Target {
				target, err := NewTarget(c.spec.System, c.spec.Workload, c.spec.Seed, c.spec.Target)
				if err != nil {
					t.Fatal(err)
				}
				return target
			}
			tuner := func() Tuner {
				tn, err := c.tuner()
				if err != nil {
					t.Fatal(err)
				}
				return tn
			}
			run, err := Start(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			wantEvents, want := stream(run)
			if want.GuardrailViolations == 0 && len(want.Front) == 0 {
				t.Fatal("the spec's session kept no scenario bookkeeping; the comparison would be vacuous")
			}

			got, err := Tune(ctx, target(), tuner(), c.spec.Budget, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.GuardrailViolations != want.GuardrailViolations || len(got.Front) != len(want.Front) {
				t.Errorf("Tune: %d violations and a %d-point front, the spec: %d and %d",
					got.GuardrailViolations, len(got.Front), want.GuardrailViolations, len(want.Front))
			}
			wantJSON, _ := json.Marshal(want)
			if gotJSON, _ := json.Marshal(got); string(gotJSON) != string(wantJSON) {
				t.Errorf("Tune's result differs from the spec's:\n  Tune: %s\n  spec: %s", gotJSON, wantJSON)
			}

			events, _ := stream(NewEngine(EngineOptions{}).Submit(Job{Name: c.spec.Name(), Tuner: tuner(), Target: target(), Budget: c.spec.Budget}))
			if !slices.Equal(events, wantEvents) {
				t.Errorf("a Job carrying the wrapper emits %d events, the spec's session %d, or they differ", len(events), len(wantEvents))
			}
		})
	}
}
