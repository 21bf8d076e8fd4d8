package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/daemon"
	"repro/internal/tune/store"
)

// TestLaunchEquivalence: the CLI's run, a daemon POST /sessions and the
// library form (store.Open → Spec.JobOn → Submit) are one launch path, so one
// spec against identically seeded repository directories transfers the same
// warm seeds, streams byte-identical event JSON and archives the same
// record through all three.
func TestLaunchEquivalence(t *testing.T) {
	args := strings.Fields("-system spark -workload pagerank -tuner ituned -trials 12 -seed 11 -scale 1 -warm-start")
	o, err := parseFlags(append(args, "-repo", "unused"))
	if err != nil {
		t.Fatal(err)
	}
	spec := o.spec

	// The history every directory is seeded with: one past spark session.
	var history repro.SessionRecord
	hist, err := repro.Spec{System: "spark", Workload: "kmeans", Tuner: "ituned", Seed: 5, Budget: repro.Budget{Trials: 10}}.
		JobWithWarm(nil, nil, func(rec repro.SessionRecord) { history = rec })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.NewEngine(repro.EngineOptions{}).Submit(hist).Wait(nil); err != nil {
		t.Fatal(err)
	}
	seeded := func() string {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Append(history); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// archived returns the record the launched session appended to dir.
	archived := func(dir string) repro.SessionRecord {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		all := st.Summaries()
		if len(all) != 2 {
			t.Fatalf("%d records after the session, want the history and the session", len(all))
		}
		got, ok, err := st.Get(all[1].ID)
		if err != nil || !ok {
			t.Fatalf("reading the session's record back: found %v, err %v", ok, err)
		}
		return got.Record
	}

	// Library.
	library := func() (events []string, rec repro.SessionRecord) {
		dir := seeded()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		seeds := int64(-1)
		job, err := spec.JobOn(st, "", nil, func(op repro.StoreOp, n int64, err error) {
			if op == repro.WarmStarted {
				seeds = n
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if seeds != repro.WarmSeeds {
			t.Fatalf("library launch transferred %d seeds, want %d", seeds, repro.WarmSeeds)
		}
		session := repro.NewEngine(repro.EngineOptions{Workers: 1}).Submit(job)
		for ev := range session.Events() {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, string(data))
		}
		if _, err := session.Wait(nil); err != nil {
			t.Fatal(err)
		}
		st.Close()
		return events, archived(dir)
	}
	libEvents, want := library()

	// CLI.
	cliDir := seeded()
	var out bytes.Buffer
	if err := run(append(args, "-repo", cliDir), &out); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("warm start: %d configurations transferred", repro.WarmSeeds); !strings.Contains(out.String(), line) {
		t.Errorf("CLI output lacks %q:\n%s", line, out.String())
	}
	if got := archived(cliDir); !reflect.DeepEqual(got, want) {
		t.Errorf("CLI archived a different record:\n got %+v\nwant %+v", got, want)
	}

	// Daemon.
	daemonDir := seeded()
	srv, err := daemon.New(daemon.Options{Workers: 1, RepoDir: daemonDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct{ ID, Events string }
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /sessions = %d (%v)", resp.StatusCode, err)
	}
	resp, err = http.Get(ts.URL + created.Events)
	if err != nil {
		t.Fatal(err)
	}
	var daemonEvents []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			daemonEvents = append(daemonEvents, data)
		}
	}
	resp.Body.Close()
	ts.Close()
	srv.Close()
	if !reflect.DeepEqual(daemonEvents, libEvents) {
		t.Errorf("daemon streamed %d events, library %d, or their JSON differs", len(daemonEvents), len(libEvents))
		for i := range min(len(daemonEvents), len(libEvents)) {
			if daemonEvents[i] != libEvents[i] {
				t.Fatalf("first difference at event %d:\n daemon  %s\n library %s", i, daemonEvents[i], libEvents[i])
			}
		}
	}
	if got := archived(daemonDir); !reflect.DeepEqual(got, want) {
		t.Errorf("daemon archived a different record:\n got %+v\nwant %+v", got, want)
	}
}
