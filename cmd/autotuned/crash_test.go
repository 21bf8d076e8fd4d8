package main

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tune/store"
)

// TestKillNineMidSessionResumes is the whole-process fault-injection test:
// a real autotuned process is SIGKILLed in the middle of a Hyperband
// session — no drain, no cleanup, exactly what a crash or OOM kill looks
// like — and a fresh process on the same -repo directory must resume the
// session from its last durable checkpoint and finish with the identical
// incumbent an uninterrupted run of the same spec and seed produces.
func TestKillNineMidSessionResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "autotuned")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building autotuned: %v\n%s", err, out)
	}
	repoDir := t.TempDir()
	const addr = "127.0.0.1:18361"
	base := "http://" + addr

	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-repo", repoDir, "-workers", "1")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	waitHealthy := func() {
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("daemon never became healthy")
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	spec := `{"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 42, "budget": {"trials": 2000}, "target": {"scale_gb": 2},
		"fidelity": {"strategy": "hyperband"}}`
	submit := func() string {
		resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated || body.ID == "" {
			t.Fatalf("POST /sessions = %d", resp.StatusCode)
		}
		return body.ID
	}
	status := func(id string) map[string]any {
		resp, err := http.Get(base + "/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitDone := func(id string) map[string]any {
		deadline := time.Now().Add(120 * time.Second)
		for {
			st := status(id)
			if s, _ := st["state"].(string); s == "done" || s == "failed" {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s never finished: %v", id, st)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	best := func(st map[string]any) float64 {
		res, _ := st["result"].(map[string]any)
		br, _ := res["best_result"].(map[string]any)
		v, ok := br["time"].(float64)
		if !ok {
			t.Fatalf("no best_result.time in %v", st)
		}
		return v
	}

	first := start()
	defer first.Process.Kill()
	waitHealthy()
	id := submit()

	// Wait for a durable checkpoint carrying observations, reading the file
	// exactly as the next process will — then SIGKILL with no warning.
	ckptPath := filepath.Join(repoDir, "checkpoints", id+".jsonl")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if cp, err := store.ReadCheckpoint(ckptPath); err == nil && cp.Trials > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint with observations ever became durable")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()

	second := start()
	defer func() {
		second.Process.Signal(os.Interrupt)
		waitExit := make(chan struct{})
		go func() { second.Wait(); close(waitExit) }()
		select {
		case <-waitExit:
		case <-time.After(15 * time.Second):
			second.Process.Kill()
		}
	}()
	waitHealthy()

	resumedSt := waitDone(id)
	if resumedSt["state"] != "done" {
		t.Fatalf("resumed session = %v", resumedSt)
	}
	if r, _ := resumedSt["resumed"].(bool); !r {
		t.Errorf("resumed flag = %v, want true", resumedSt["resumed"])
	}

	// Uninterrupted reference on the same daemon, same spec and seed.
	refSt := waitDone(submit())
	if refSt["state"] != "done" {
		t.Fatalf("reference session = %v", refSt)
	}
	if got, want := best(resumedSt), best(refSt); got != want {
		t.Errorf("resumed incumbent %v != uninterrupted %v", got, want)
	}
	rd, _ := resumedSt["trials_done"].(float64)
	fd, _ := refSt["trials_done"].(float64)
	if rd != fd {
		t.Errorf("resumed ran %v trials, uninterrupted %v", rd, fd)
	}
}
