package repro

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/tune"
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

func TestNewTunerAll(t *testing.T) {
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
		if _, err := NewTuner(name, opts); err != nil {
			t.Errorf("NewTuner(%q): %v", name, err)
		}
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
	r, err := tn.Tune(context.Background(), target, tune.Budget{Trials: 15})
	if err != nil {
		t.Fatal(err)
	}
	if r.BestResult.Time >= def.Time {
		t.Errorf("tuning did not improve: %v vs %v", r.BestResult.Time, def.Time)
	}
}

// TestTuneIsOneJob: there is one way to configure a session. Tune at any
// parallelism, the spec's Job submitted to an engine, and the tuner's own
// blocking Tune return the same result — a fidelity schedule included.
func TestTuneIsOneJob(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []Spec{
		{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: 5, Budget: Budget{Trials: 14}},
		{System: "dbms", Workload: "tpch", Tuner: "random", Seed: 5, Budget: Budget{Trials: 30},
			Fidelity: &FidelitySpec{Strategy: "hyperband"}},
	} {
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
			blocking := result(j.Tuner.Tune(ctx, j.Target, j.Budget))
			j = job()
			if got := result(Tune(ctx, j.Target, j.Tuner, j.Budget, p)); got != blocking {
				t.Errorf("%s at parallel %d: Tune differs from the blocking Tune:\n  %s\n  %s", spec.Name(), p, got, blocking)
			}
			if got := result(NewEngine(EngineOptions{}).Submit(job()).Wait(ctx)); got != blocking {
				t.Errorf("%s at parallel %d: the spec's Job differs from the blocking Tune:\n  %s\n  %s", spec.Name(), p, got, blocking)
			}
		}
	}
}
