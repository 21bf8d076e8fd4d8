package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesTheHarness keeps the root BENCHMARK.json — the
// contract the driver reads — in step with what the harness prints: the
// same workloads, the same metric names, units, directions and bounds, and
// the same default window.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %+v\n harness        %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %+v\n harness        %+v", b.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestTraceFlagForms(t *testing.T) {
	var b boolOrDigit
	got := b.rewrite([]string{"--workload", "warm_repo", "--seed", "4", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "warm_repo", "--seed", "4", "--seconds", "20", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rewrite = %v, want %v", got, want)
	}
	got = b.rewrite([]string{"-trace", "-seed", "0"})
	if want := []string{"-trace", "-seed", "0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("a bare -trace was rewritten: %v", got)
	}
	for in, want := range map[string]bool{"1": true, "0": false, "true": true, "false": false} {
		if err := b.Set(in); err != nil || bool(b) != want {
			t.Errorf("Set(%q) = %v, %v", in, bool(b), err)
		}
	}
	if err := b.Set("2"); err == nil {
		t.Error("-trace=2 was accepted")
	}
}
