package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	repro "repro"
	"repro/internal/tune/store"
)

// TestResumeOnlyTheIdenticalSpec: the checkpoint an interrupted -resume
// session leaves resumes that spec to exactly the uninterrupted report, and
// a spec that differs in one tuning flag — here only -trials — starts fresh
// beside it instead of replaying the other session's history.
func TestResumeOnlyTheIdenticalSpec(t *testing.T) {
	base := strings.Fields("-system dbms -workload tpch -tuner ituned -seed 42")
	// report runs the CLI on dir, dropping the lines that name the
	// directory, the archive id and a resumption.
	report := func(dir string, args ...string) (kept, dropped string) {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(append(append([]string{}, base...), args...), "-repo", dir, "-resume"), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var k, d []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "repository ") || strings.HasPrefix(line, "archived ") || strings.HasPrefix(line, "resuming ") {
				d = append(d, line)
			} else {
				k = append(k, line)
			}
		}
		return strings.Join(k, "\n"), strings.Join(d, "\n")
	}

	// Interrupt a 30-trial session at its first checkpoint of 10 or more
	// trials, launched as the CLI launches it.
	dir := t.TempDir()
	o, err := parseFlags(append(append([]string{}, base...), "-trials", "30", "-repo", dir, "-resume"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	session := make(chan *repro.Run, 1)
	var stop sync.Once
	job, err := o.spec.JobOn(st, cliCheckpointID(o.spec), nil, func(op repro.StoreOp, n int64, err error) {
		if op == repro.Checkpointed && err == nil && n >= 10 {
			stop.Do(func() { (<-session).Stop() })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r := repro.NewEngine(repro.EngineOptions{Workers: 1}).Submit(job)
	session <- r
	if _, err := r.Wait(nil); err == nil {
		t.Fatal("the session finished although it was stopped")
	}
	cps, err := st.Checkpoints()
	if err != nil || len(cps) != 1 || len(cps[0].Replay.Trials) < 10 || len(cps[0].Replay.Trials) >= 30 {
		t.Fatalf("want one checkpoint of 10 to 29 trials, have %d (%v)", len(cps), err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A spec that differs only in -trials starts fresh.
	fresh20, _ := report(t.TempDir(), "-trials", "20")
	got20, dropped := report(dir, "-trials", "20")
	if strings.Contains(dropped, "resuming") || got20 != fresh20 {
		t.Errorf("-trials 20 beside a 30-trial checkpoint:\n%s\n%s\n--- want a fresh run ---\n%s", dropped, got20, fresh20)
	}
	// The interrupted spec resumes to the uninterrupted report.
	fresh30, _ := report(t.TempDir(), "-trials", "30")
	got30, dropped := report(dir, "-trials", "30")
	if !strings.Contains(dropped, "resuming from checkpoint") || got30 != fresh30 {
		t.Errorf("resumed 30-trial session:\n%s\n%s\n--- want the uninterrupted report ---\n%s", dropped, got30, fresh30)
	}
}
