package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSmoke runs the whole benchmark — every workload, end to end against
// real child processes and traced — at about 1/50 size, and then checks that
// it cleaned up: no child process and no scratch directory survives the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemon and evaluator processes; skipped in -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Join(root, "benchmark", "out", "run-*")
	before, _ := filepath.Glob(scratch)
	out := filepath.Join(t.TempDir(), "smoke.json")
	if code := run([]string{"-smoke", "-seed", "3", "-out", out}); code != 0 {
		t.Fatalf("benchmark -smoke exited %d", code)
	}
	f, err := readReports(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(workloads); len(f.Runs) != want {
		t.Fatalf("%d reports, want %d (an end-to-end and a traced pass per workload)", len(f.Runs), want)
	}
	for _, r := range f.Runs {
		defs := endToEnd
		if r.Traced {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", r.Workload, r.Traced, r.Correct, r.Attempted, r.Failed, r.Errors)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", r.Workload, r.Traced, len(r.Metrics), len(defs))
		}
		for _, m := range defs {
			v, ok := r.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", r.Workload, r.Traced, m.Name, v.Unit, m.Unit)
			} else if !r.Traced && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", r.Workload, m.Name, v.Value)
			}
		}
		if !r.Traced && (r.Verified == 0 || r.DigestSessions == 0) {
			t.Errorf("%s: no session was checked against an in-process run", r.Workload)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("the traced pass left no span file: %v", err)
		}
	}

	// Orphans of killed earlier runs are removed too, so nothing new and
	// nothing of this process may be left.
	after, _ := filepath.Glob(scratch)
	for _, dir := range after {
		if !slices.Contains(before, dir) {
			t.Errorf("scratch directory %s survived the run", dir)
		}
	}
	if kids := childProcesses(t); len(kids) > 0 {
		t.Errorf("child processes survived the run: %v", kids)
	}
}

// childProcesses lists the live processes whose parent is this one.
func childProcesses(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var kids []string
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited between the glob and the read
		}
		// "<pid> (<comm>) <state> <ppid> …"; comm may contain spaces.
		i := bytes.LastIndexByte(data, ')')
		f := strings.Fields(string(data[i+1:]))
		if i < 0 || len(f) < 2 || f[1] != fmt.Sprint(os.Getpid()) || f[0] == "Z" {
			continue
		}
		kids = append(kids, string(data[:i+1]))
	}
	return kids
}
