package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mathx/linalg"
)

// startEvaluator runs one in-process evaluator server.
func startEvaluator(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	ev := dist.NewEvaluator(dist.EvaluatorOptions{
		Workers:        workers,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(ev.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHealthzSummaries: the liveness probe reports the session table by
// state, repository status, and the evaluator fleet.
func TestHealthzSummaries(t *testing.T) {
	ev := startEvaluator(t, 2)
	ts, _ := newTestServerWith(t, Options{Workers: 2, RepoDir: t.TempDir(), Evaluators: []string{ev.URL}})

	id, code, _ := postSpec(t, ts,
		`{"system":"dbms","workload":"tpch","tuner":"ituned","seed":42,"budget":{"trials":4},"parallel":2,"target":{"scale_gb":2}}`)
	if code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	waitForState(t, ts, id, "done")

	body := getJSON(t, ts.URL+"/healthz")
	if body["status"] != "ok" {
		t.Fatalf("status = %v", body["status"])
	}
	sessions, _ := body["sessions"].(map[string]any)
	if sessions["total"] != float64(1) || sessions["done"] != float64(1) {
		t.Fatalf("session summary = %v", sessions)
	}
	repo, _ := body["repository"].(map[string]any)
	if repo["enabled"] != true || repo["sessions"] != float64(1) {
		t.Fatalf("repository summary = %v", repo)
	}
	fleet, _ := body["evaluators"].(map[string]any)
	if fleet["configured"] != float64(1) || fleet["healthy"] != float64(1) {
		t.Fatalf("fleet summary = %v", fleet)
	}

	// No lookup yet, so no index: the first one builds it, the second
	// finds it ready.
	if _, built := repo["index_builds"]; built {
		t.Fatalf("index built before any lookup: %v", repo)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/repository/nearest", "application/json",
			strings.NewReader(`{"system":"dbms","features":{"data_gb":2}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("nearest status = %d", resp.StatusCode)
		}
	}
	repo, _ = getJSON(t, ts.URL+"/healthz")["repository"].(map[string]any)
	if repo["index_builds"] != float64(1) || repo["index_points"] != float64(1) {
		t.Fatalf("repository summary after two lookups = %v", repo)
	}
	if ms, _ := repo["index_build_ms_last"].(float64); ms <= 0 {
		t.Fatalf("index_build_ms_last = %v", repo["index_build_ms_last"])
	}
}

// TestHealthzWithoutExtras: a bare daemon still answers with zeroed
// summaries — the probe shape is stable regardless of configuration.
func TestHealthzWithoutExtras(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/healthz")
	if body["status"] != "ok" {
		t.Fatalf("status = %v", body["status"])
	}
	repo, _ := body["repository"].(map[string]any)
	if repo["enabled"] != false {
		t.Fatalf("repository summary = %v", repo)
	}
	fleet, _ := body["evaluators"].(map[string]any)
	if fleet["configured"] != float64(0) {
		t.Fatalf("fleet summary = %v", fleet)
	}
	if body["linalg_kernel"] != linalg.Kernel() {
		t.Fatalf("linalg_kernel = %v, the process runs %q", body["linalg_kernel"], linalg.Kernel())
	}
}

// TestEvaluatorEndpoints: the fleet is visible under GET /evaluators and
// grows through POST /evaluators; sessions submitted afterwards lease
// trials to it and still finish with the expected result.
func TestEvaluatorEndpoints(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 2})

	body := getJSON(t, ts.URL+"/evaluators")
	if evs, _ := body["evaluators"].([]any); len(evs) != 0 {
		t.Fatalf("fresh daemon reports %d evaluators", len(evs))
	}

	ev := startEvaluator(t, 2)
	resp, err := http.Post(ts.URL+"/evaluators", "application/json",
		strings.NewReader(`{"url":"`+ev.URL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", resp.StatusCode)
	}

	body = getJSON(t, ts.URL+"/evaluators")
	evs, _ := body["evaluators"].([]any)
	if len(evs) != 1 {
		t.Fatalf("registered fleet has %d evaluators, want 1", len(evs))
	}
	entry, _ := evs[0].(map[string]any)
	if entry["url"] != ev.URL || entry["healthy"] != true || entry["workers"] != float64(2) {
		t.Fatalf("evaluator entry = %v", entry)
	}

	// Local workers finish a simulated trial in microseconds and can drain a
	// whole batch before the evaluator's slot pulls a position; a session of
	// several GP rounds gives the slot a position in one of them (a single
	// 6-trial batch left it idle about once in 30 runs).
	id, code, _ := postSpec(t, ts,
		`{"system":"dbms","workload":"tpch","tuner":"ituned","seed":42,"budget":{"trials":24},"parallel":2,"target":{"scale_gb":2}}`)
	if code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	waitForState(t, ts, id, "done")

	body = getJSON(t, ts.URL+"/evaluators")
	evs, _ = body["evaluators"].([]any)
	entry, _ = evs[0].(map[string]any)
	if entry["completed"] == float64(0) {
		t.Fatal("session finished without the fleet evaluating anything")
	}
}

// TestEvaluatorRegistrationRejectsGarbage: malformed or empty registrations
// are 400s, not silent fleet entries.
func TestEvaluatorRegistrationRejectsGarbage(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{`{"url":""}`, `{}`, `{"nope":1}`, `not json`} {
		resp, err := http.Post(ts.URL+"/evaluators", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// waitForState polls a session until it reaches the wanted state.
func waitForState(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		body := getJSON(t, ts.URL+"/sessions/"+id)
		if body["state"] == want {
			return
		}
		if body["state"] == "failed" && want != "failed" {
			t.Fatalf("session failed: %v", body["error"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %q", id, want)
}
