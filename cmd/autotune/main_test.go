package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	repro "repro"
)

// TestFlagsMapToSpec: every tuning flag lands in exactly the Spec field the
// daemon reads for the same request, and nowhere else.
func TestFlagsMapToSpec(t *testing.T) {
	base := func() repro.Spec {
		return repro.Spec{
			System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: 42,
			Budget: repro.Budget{Trials: 30}, Parallel: 1,
			Target: repro.TargetOptions{Nodes: 16},
		}
	}
	for _, tc := range []struct {
		args string
		want func(*repro.Spec)
	}{
		{"", func(*repro.Spec) {}},
		{"-system spark -workload pagerank -tuner ottertune -seed 7 -trials 12", func(s *repro.Spec) {
			s.System, s.Workload, s.Tuner, s.Seed, s.Budget.Trials = "spark", "pagerank", "ottertune", 7, 12
		}},
		{"-parallel 4", func(s *repro.Spec) { s.Parallel = 4 }},
		{"-memo", func(s *repro.Spec) { s.Memo = true }},
		{"-scale 4.5", func(s *repro.Spec) { s.Target.ScaleGB = 4.5 }},
		{"-nodes 8", func(s *repro.Spec) { s.Target.Nodes = 8 }},
		{"-hetero", func(s *repro.Spec) { s.Target.Heterogeneous = true }},
		{"-tenants 0.3", func(s *repro.Spec) { s.Target.TenantLoad = 0.3 }},
		{"-repo /r -warm-start", func(s *repro.Spec) { s.WarmStart = true }},
		{"-fidelity hyperband", func(s *repro.Spec) { s.Fidelity = &repro.FidelitySpec{Strategy: "hyperband"} }},
		{"-fidelity halving", func(s *repro.Spec) { s.Fidelity = &repro.FidelitySpec{Strategy: "halving"} }},
		{"-surrogate sparse", func(s *repro.Spec) { s.Surrogate = &repro.SurrogateSpec{Tier: "sparse"} }},
		{"-sparse-above 100", func(s *repro.Spec) { s.Surrogate = &repro.SurrogateSpec{SparseAbove: 100} }},
		{"-rff-above 2000", func(s *repro.Spec) { s.Surrogate = &repro.SurrogateSpec{RFFAbove: 2000} }},
		{"-pareto", func(s *repro.Spec) { s.Pareto = true }},
		{"-guardrail 1200", func(s *repro.Spec) { s.Guardrail = 1200 }},
		{"-drift-detect", func(s *repro.Spec) { s.DriftDetect = true }},
		// CLI-only flags leave the spec alone.
		{"-repo /r -resume -progress -curve -evaluators http://h:1", func(*repro.Spec) {}},
	} {
		o, err := parseFlags(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		want := base()
		tc.want(&want)
		if !reflect.DeepEqual(o.spec, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, o.spec, want)
		}
	}
	for _, args := range []string{"-warm-start", "-resume"} {
		if _, err := parseFlags([]string{args}); err == nil {
			t.Errorf("%s without -repo was accepted", args)
		}
	}
}

// TestSameOutputAtAnyParallel: the one launch path prints the same report —
// recommendation, front, violation count — at -parallel 1 and 4, with and
// without -progress (whose only output is \r-prefixed lines).
func TestSameOutputAtAnyParallel(t *testing.T) {
	report := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(args, "-trials", "16"), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "\r") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	for _, wrappers := range [][]string{nil, {"-pareto", "-guardrail", "1200"}} {
		args := append([]string{"-system", "dbms", "-workload", "tpch", "-tuner", "ituned"}, wrappers...)
		p1 := report(append(args, "-parallel", "1")...)
		if !strings.Contains(p1, "recommended configuration:") {
			t.Fatalf("%v: no recommendation in:\n%s", args, p1)
		}
		if p4 := report(append(args, "-parallel", "4")...); p4 != p1 {
			t.Errorf("%v: -parallel 4 differs from -parallel 1:\n%s\n--- vs ---\n%s", args, p4, p1)
		}
		if pp := report(append(args, "-parallel", "4", "-progress")...); pp != p1 {
			t.Errorf("%v: -progress changed the report:\n%s\n--- vs ---\n%s", args, pp, p1)
		}
	}
}
