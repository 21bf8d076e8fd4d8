package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tune"
	"repro/internal/tune/store"
)

func newTestServer(t *testing.T) *httptest.Server {
	ts, _ := newTestServerWith(t, Options{Workers: 2})
	return ts
}

// newTestServerWith returns both handles: tests that restart a daemon on a
// shared repository directory must Close the first Server (releasing its
// store's process lock) before opening the next.
func newTestServerWith(t *testing.T, o Options) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func postSpec(t *testing.T, ts *httptest.Server, spec string) (id string, code int, body map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body = map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	id, _ = body["id"].(string)
	return id, resp.StatusCode, body
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	ID   string
	Name string
	Data []byte
}

// readSSE parses an SSE stream until it closes.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("events content type = %q", got)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Name != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDaemonEndToEnd is the curl-able acceptance flow: POST a JSON spec,
// stream SSE events until session_done, then GET the final result.
func TestDaemonEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	id, code, body := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "ituned",
		"seed": 42, "budget": {"trials": 8}, "parallel": 2,
		"target": {"scale_gb": 2}}`)
	if code != http.StatusCreated || id == "" {
		t.Fatalf("POST /sessions = %d, %v", code, body)
	}

	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	var trialsDone int
	for _, ev := range events {
		if ev.Name == "trial_done" {
			trialsDone++
		}
	}
	if trialsDone != 8 {
		t.Errorf("streamed %d trial_done events, want 8", trialsDone)
	}
	last := events[len(events)-1]
	if last.Name != "session_done" {
		t.Fatalf("stream ended with %q, want session_done", last.Name)
	}
	if !bytes.Contains(last.Data, []byte(`"final"`)) {
		t.Errorf("session_done carries no final result: %s", last.Data)
	}

	// Reconnecting replays the identical stream.
	resp2, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, resp2)
	if len(replay) != len(events) {
		t.Fatalf("replay has %d events, live had %d", len(replay), len(events))
	}
	for i := range events {
		if events[i].Name != replay[i].Name || !bytes.Equal(events[i].Data, replay[i].Data) {
			t.Fatalf("replayed event %d differs: %s %s vs %s %s",
				i, replay[i].Name, replay[i].Data, events[i].Name, events[i].Data)
		}
	}

	// The final status carries the result.
	sresp, err := http.Get(ts.URL + "/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st struct {
		State      string          `json:"state"`
		TrialsDone int             `json:"trials_done"`
		Result     json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.TrialsDone != 8 || len(st.Result) == 0 {
		t.Errorf("status = %+v", st)
	}
	if !bytes.Contains(st.Result, []byte(`"best"`)) {
		t.Errorf("result has no best config: %s", st.Result)
	}

	// The session list includes the session.
	lresp, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 1 || listing.Sessions[0].ID != id {
		t.Errorf("listing = %+v", listing)
	}
}

// TestDaemonFidelitySessionReplayIsByteIdentical closes the gap the plain
// end-to-end test left open: it asserted event counts and data on the
// happy path only. Here a session containing pruned trials (a Hyperband
// fidelity spec) streams live, then is replayed, and the two SSE streams
// must match byte-for-byte — event names and payloads, including every
// trial_pruned entry in order — and the final status must report the
// pruned/rung counters.
func TestDaemonFidelitySessionReplayIsByteIdentical(t *testing.T) {
	ts := newTestServer(t)
	id, code, body := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "ituned",
		"seed": 42, "budget": {"trials": 24}, "parallel": 2,
		"target": {"scale_gb": 2},
		"fidelity": {"strategy": "hyperband"}}`)
	if code != http.StatusCreated || id == "" {
		t.Fatalf("POST /sessions = %d, %v", code, body)
	}
	get := func() []sseEvent {
		resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		return readSSE(t, resp)
	}
	live := get()
	if len(live) == 0 || live[len(live)-1].Name != "session_done" {
		t.Fatalf("live stream malformed: %d events", len(live))
	}
	var prunedEvents int
	for _, ev := range live {
		if ev.Name == "trial_pruned" {
			prunedEvents++
			if !bytes.Contains(ev.Data, []byte(`"fidelity"`)) || !bytes.Contains(ev.Data, []byte(`"config"`)) {
				t.Errorf("trial_pruned event missing fidelity/config: %s", ev.Data)
			}
		}
	}
	if prunedEvents == 0 {
		t.Fatal("fidelity session streamed no trial_pruned events")
	}
	replay := get()
	if len(replay) != len(live) {
		t.Fatalf("replay has %d events, live had %d", len(replay), len(live))
	}
	for i := range live {
		if live[i].Name != replay[i].Name {
			t.Fatalf("replayed event %d name %q != live %q", i, replay[i].Name, live[i].Name)
		}
		if !bytes.Equal(live[i].Data, replay[i].Data) {
			t.Fatalf("replayed event %d differs byte-for-byte:\nlive:   %s\nreplay: %s", i, live[i].Data, replay[i].Data)
		}
	}
	// Status surfaces the fidelity counters.
	st := waitDone(t, ts, id)
	if got, _ := st["trials_pruned"].(float64); int(got) != prunedEvents {
		t.Errorf("status trials_pruned = %v, stream had %d", st["trials_pruned"], prunedEvents)
	}
	if got, _ := st["rungs_decided"].(float64); got < 1 {
		t.Errorf("status rungs_decided = %v, want ≥ 1", st["rungs_decided"])
	}
}

// TestDaemonRejectsBadSpecs: malformed JSON, unknown fields, and invalid
// names all get descriptive 400s.
func TestDaemonRejectsBadSpecs(t *testing.T) {
	ts := newTestServer(t)
	for _, spec := range []string{
		`{not json`,
		`{"system": "dbms", "workload": "tpch", "tuner": "ituned", "budget": {"trials": 1}, "bogus_field": 1}`,
		`{"system": "nosuch", "workload": "x", "tuner": "ituned", "budget": {"trials": 1}}`,
		`{"system": "dbms", "workload": "tpch", "tuner": "ituned", "budget": {"trials": 1}, "target": {"tenant_load": 2}}`,
		`{"system": "dbms", "workload": "tpch", "tuner": "ituned", "budget": {"trials": 1}, "surrogate": {"tier": "kriging"}}`,
		`{"system": "dbms", "workload": "tpch", "tuner": "ituned", "budget": {"trials": 1}, "surrogate": {"sparse_above": 500, "rff_above": 100}}`,
	} {
		_, code, body := postSpec(t, ts, spec)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", spec, code)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("POST %s: no error message in %v", spec, body)
		}
	}
}

// TestDaemonRefusesRetiredSettings: the settings a spec or an operator can
// no longer choose are refused loudly — a POSTed spec carrying one is a 400
// naming the field, a checkpoint whose spec carries one is dropped at
// startup instead of resumed, and a negative event buffer fails New.
func TestDaemonRefusesRetiredSettings(t *testing.T) {
	// The memo's bound is spelled in two pieces so that its retired name
	// appears nowhere in the tree (TestRetiredSurfacesStayRetired).
	memoBound := `"memo` + `_cap": 4`
	specs := []struct{ spec, field string }{
		{`{"system": "dbms", "workload": "tpch", "tuner": "random", "budget": {"trials": 4}, "memo": true, ` + memoBound + `}`, `"memo_` + `cap"`},
		{`{"system": "dbms", "workload": "tpch", "tuner": "random", "budget": {"trials": 4}, "fidelity": {"strategy": "halving", "min": 0.2}}`, `"min"`},
		{`{"system": "dbms", "workload": "tpch", "tuner": "random", "budget": {"trials": 4}, "fidelity": {"strategy": "halving", "eta": 4}}`, `"eta"`},
	}
	ts := newTestServer(t)
	for _, c := range specs {
		_, code, body := postSpec(t, ts, c.spec)
		if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, c.field) {
			t.Errorf("POST %s = %d %q, want 400 naming %s", c.spec, code, msg, c.field)
		}
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// s1–s3 carry a retired setting; s4, the same spec without one, resumes.
	plain := `{"system": "dbms", "workload": "tpch", "tuner": "random", "budget": {"trials": 4}}`
	for i, spec := range []string{specs[0].spec, specs[1].spec, specs[2].spec, plain} {
		if err := st.SaveCheckpoint(store.SessionCheckpoint{SID: fmt.Sprintf("s%d", i+1), Spec: json.RawMessage(spec)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	srv.mu.Lock()
	ids, resumed := srv.order, srv.resumed
	srv.mu.Unlock()
	if len(ids) != 1 || ids[0] != "s4" || resumed != 1 {
		t.Errorf("startup resumed %d sessions %v, want only s4", resumed, ids)
	}
	cps, err := srv.repo.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range cps {
		if cp.SID != "s4" {
			t.Errorf("checkpoint %s carrying a retired setting survived startup", cp.SID)
		}
	}

	if _, err := New(Options{EventBuffer: -1}); err == nil || !strings.Contains(err.Error(), "event buffer") {
		t.Errorf("New(EventBuffer: -1) = %v, want a refusal naming the event buffer", err)
	}
}

// TestDaemonRefusesUnrunnableSpecs: a tuner that cannot serve the spec's
// target or budget is a 400 carrying the message its session used to fail
// with on the first step — not a 201 and a dead session.
func TestDaemonRefusesUnrunnableSpecs(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct{ spec, want string }{
		{`{"system": "dbms", "workload": "tpch", "tuner": "starfish", "budget": {"trials": 12}}`,
			`costmodel/starfish: target "dbms/tpch" is not a Hadoop deployment`},
		{`{"system": "hadoop", "workload": "terasort", "tuner": "ernest", "budget": {"trials": 12}}`,
			`costmodel/ernest: target "hadoop/terasort" is not a Spark deployment`},
		{`{"system": "spark", "workload": "pagerank", "tuner": "ernest", "budget": {"trials": 12}, "pareto": true}`,
			`costmodel/ernest: budget 3 too small (need ≥4 trials)`},
		{`{"system": "hadoop", "workload": "terasort", "tuner": "colt", "budget": {"trials": 12}}`,
			`adaptive/colt: target "hadoop/terasort" does not support online reconfiguration`},
		{`{"system": "dbms", "workload": "oltp-olap-shift", "tuner": "partitions", "budget": {"trials": 12}}`,
			`adaptive/partitions: target "dbms/oltp-olap-shift" does not support online reconfiguration`},
		{`{"system": "hadoop", "workload": "terasort", "tuner": "memory-manager", "budget": {"trials": 12}}`,
			`adaptive/memory-manager: target "hadoop/terasort" does not support online reconfiguration`},
		// A sequential body fills one configuration per bracket: the session
		// used to be accepted and end after 8 of its 30 trials.
		{`{"system": "dbms", "workload": "tpch", "tuner": "rrs", "budget": {"trials": 30}, "fidelity": {"strategy": "hyperband"}}`,
			`experiment/rrs proposes one configuration at a time, each chosen from the last result, so a hyperband schedule`},
		{`{"system": "dbms", "workload": "tpch", "tuner": "sard", "budget": {"trials": 30}, "fidelity": {"strategy": "halving"}}`,
			`experiment/sard proposes one configuration at a time, each chosen from the last result, so a halving schedule`},
		{`{"system": "spark", "workload": "pagerank", "tuner": "adaptive-sampling", "budget": {"trials": 30}, "fidelity": {}}`,
			`experiment/adaptive-sampling proposes one configuration at a time, each chosen from the last result, so a hyperband schedule`},
		{`{"system": "hadoop", "workload": "terasort", "tuner": "addm", "budget": {"trials": 30}, "fidelity": {}}`,
			`simulation/addm proposes one configuration at a time, each chosen from the last result, so a hyperband schedule`},
	} {
		_, code, body := postSpec(t, ts, c.spec)
		if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
			t.Errorf("POST %s = %d %q, want 400 with %q", c.spec, code, msg, c.want)
		}
	}
}

// TestDaemonSurrogateSpecRuns: a spec pinning the surrogate tier schedule is
// accepted, runs to completion, and the recorded spec echoes the schedule.
func TestDaemonSurrogateSpecRuns(t *testing.T) {
	ts := newTestServer(t)
	id, code, body := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "ituned",
		"seed": 7, "budget": {"trials": 12}, "parallel": 2,
		"target": {"scale_gb": 2},
		"surrogate": {"sparse_above": 8, "inducing": 8}}`)
	if code != http.StatusCreated || id == "" {
		t.Fatalf("POST /sessions = %d, %v", code, body)
	}
	st := waitDone(t, ts, id)
	if s, _ := st["state"].(string); s != "done" {
		t.Fatalf("surrogate session state = %v", st)
	}
	if n, _ := st["trials_done"].(float64); n != 12 {
		t.Errorf("trials_done = %v, want 12", st["trials_done"])
	}
	spec, _ := st["spec"].(map[string]any)
	sur, _ := spec["surrogate"].(map[string]any)
	if v, _ := sur["sparse_above"].(float64); v != 8 {
		t.Errorf("recorded spec surrogate = %v, want sparse_above 8", spec["surrogate"])
	}
}

// TestDaemonUnknownSession: every per-session route 404s for missing ids.
func TestDaemonUnknownSession(t *testing.T) {
	ts := newTestServer(t)
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/sessions/s99"},
		{http.MethodGet, "/sessions/s99/events"},
		{http.MethodPost, "/sessions/s99/pause"},
		{http.MethodPost, "/sessions/s99/resume"},
		{http.MethodDelete, "/sessions/s99"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestDaemonStop: DELETE cancels a running session, which then reports
// state failed with a cancellation error.
func TestDaemonStop(t *testing.T) {
	ts := newTestServer(t)
	id, code, _ := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 1, "budget": {"trials": 100000}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	// The session settles into failed with a context cancellation error.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := http.Get(ts.URL + "/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(sresp.Body).Decode(&st)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" {
			if !strings.Contains(st.Error, "canceled") {
				t.Errorf("error = %q, want a cancellation", st.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never failed; state %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSequentialSessionsLeaveNoGoroutines: an rrs session's search body is
// parked on a coroutine between trials. A hundred of them — most finishing on
// their budget, every fourth stopped by DELETE while its body is mid-search —
// must leave the process with the goroutines it started with.
func TestSequentialSessionsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	ts, _ := newTestServerWith(t, Options{Workers: 2})
	var ids []string
	for i := 0; i < 100; i++ {
		trials := 20
		if i%4 == 0 {
			trials = 200000 // only DELETE ends it
		}
		id, code, body := postSpec(t, ts, fmt.Sprintf(`{
			"system": "dbms", "workload": "tpch", "tuner": "rrs", "target": {"scale_gb": 1},
			"seed": %d, "budget": {"trials": %d}, "parallel": %d}`, i, trials, 1+i%2))
		if code != http.StatusCreated {
			t.Fatalf("POST %d = %d %v", i, code, body)
		}
		if i%4 == 0 {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		want := "done"
		if i%4 == 0 {
			want = "failed"
		}
		if st := waitDone(t, ts, id); st["state"] != want {
			t.Fatalf("session %d (%s) = %v, want %s", i, id, st["state"], want)
		}
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSequentialSessionsLeaveNoGoroutinesRace3(t *testing.T) {
	TestSequentialSessionsLeaveNoGoroutines(t)
}

// TestDaemonDeleteFinishedSessionRemovesIt: DELETE on a finished session
// releases its record and event log; subsequent GETs 404.
func TestDaemonDeleteFinishedSessionRemovesIt(t *testing.T) {
	ts := newTestServer(t)
	id, code, _ := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 4, "budget": {"trials": 3}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	// Drain the stream so the session is done.
	eresp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, eresp)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body["state"] != "removed" {
		t.Fatalf("DELETE finished = %d %v, want 200 removed", resp.StatusCode, body)
	}
	gresp, err := http.Get(ts.URL + "/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after removal = %d, want 404", gresp.StatusCode)
	}
}

// TestDaemonPauseResume: pause flips the reported state and resume lets
// the session finish with all trials.
func TestDaemonPauseResume(t *testing.T) {
	ts := newTestServer(t)
	id, code, _ := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 2, "budget": {"trials": 30}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	presp, err := http.Post(ts.URL+"/sessions/"+id+"/pause", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	rresp, err := http.Post(ts.URL+"/sessions/"+id+"/resume", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	eresp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, eresp)
	if last := events[len(events)-1]; last.Name != "session_done" {
		t.Fatalf("stream ended with %q", last.Name)
	}
	var trials int
	for _, ev := range events {
		if ev.Name == "trial_done" {
			trials++
		}
	}
	if trials != 30 {
		t.Errorf("ran %d trials, want 30", trials)
	}
}

// TestDaemonHealthz: liveness probe answers.
func TestDaemonHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// waitDone polls a session until it reaches a terminal state and returns
// its final status body.
func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := st["state"].(string); s == "done" || s == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never finished: %v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func bestTime(t *testing.T, st map[string]any) float64 {
	t.Helper()
	res, _ := st["result"].(map[string]any)
	br, _ := res["best_result"].(map[string]any)
	v, ok := br["time"].(float64)
	if !ok {
		t.Fatalf("no best_result.time in %v", st)
	}
	return v
}

// TestDaemonRepositoryWarmStartAcrossRestart is the repository acceptance
// flow: archive two sessions, restart the daemon on the same directory,
// verify the archived history is served again, then run a cold and a
// warm-started session on an unseen workload over HTTP and assert the warm
// one beats the cold incumbent at equal trial budget.
func TestDaemonRepositoryWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerWith(t, Options{Workers: 2, RepoDir: dir})

	// Two past sessions: the history a long-lived daemon accumulates.
	for _, spec := range []string{
		`{"system": "spark", "workload": "kmeans", "tuner": "ituned",
		  "seed": 43, "budget": {"trials": 30}}`,
		`{"system": "spark", "workload": "terasort", "tuner": "ituned",
		  "seed": 44, "budget": {"trials": 30}}`,
	} {
		id, code, body := postSpec(t, ts, spec)
		if code != http.StatusCreated {
			t.Fatalf("POST = %d, %v", code, body)
		}
		st := waitDone(t, ts, id)
		if st["state"] != "done" {
			t.Fatalf("history session failed: %v", st)
		}
		if _, ok := st["archived_as"].(float64); !ok {
			t.Fatalf("finished session not archived: %v", st)
		}
	}

	listRepo := func(srv *httptest.Server) []map[string]any {
		resp, err := http.Get(srv.URL + "/repository/sessions")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var listing struct {
			Sessions []map[string]any `json:"sessions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
		return listing.Sessions
	}
	if got := listRepo(ts); len(got) != 2 {
		t.Fatalf("repository lists %d sessions, want 2", len(got))
	}
	ts.Close()
	srv.Close() // first daemon lifetime ends, releasing the store lock

	// Restart: a fresh server on the same directory replays the archive.
	ts2, _ := newTestServerWith(t, Options{Workers: 2, RepoDir: dir})
	archived := listRepo(ts2)
	if len(archived) != 2 {
		t.Fatalf("restarted daemon lists %d archived sessions, want 2", len(archived))
	}
	for _, s := range archived {
		if s["system"] != "spark" || s["trials"].(float64) != 30 {
			t.Errorf("archived summary wrong: %v", s)
		}
	}
	// The full record is servable by id.
	firstID := int(archived[0]["id"].(float64))
	resp, err := http.Get(fmt.Sprintf("%s/repository/sessions/%d", ts2.URL, firstID))
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Record struct {
			Workload string           `json:"workload"`
			Trials   []map[string]any `json:"trials"`
		} `json:"record"`
	}
	err = json.NewDecoder(resp.Body).Decode(&full)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if full.Record.Workload != "kmeans" || len(full.Record.Trials) != 30 {
		t.Errorf("archived record wrong: %s with %d trials", full.Record.Workload, len(full.Record.Trials))
	}

	// Cold vs warm on the unseen workload, equal budget and seed.
	cold := `{"system": "spark", "workload": "pagerank", "tuner": "ituned",
	          "seed": 42, "budget": {"trials": 25}}`
	warm := `{"system": "spark", "workload": "pagerank", "tuner": "ituned",
	          "seed": 42, "budget": {"trials": 25}, "warm_start": true}`
	coldID, code, _ := postSpec(t, ts2, cold)
	if code != http.StatusCreated {
		t.Fatalf("cold POST = %d", code)
	}
	warmID, code, _ := postSpec(t, ts2, warm)
	if code != http.StatusCreated {
		t.Fatalf("warm POST = %d", code)
	}
	coldSt, warmSt := waitDone(t, ts2, coldID), waitDone(t, ts2, warmID)
	coldBest, warmBest := bestTime(t, coldSt), bestTime(t, warmSt)
	if warmBest >= coldBest {
		t.Errorf("warm start (%v) should beat the cold incumbent (%v) at equal budget", warmBest, coldBest)
	}
	// Both finished sessions were archived too: history keeps accumulating.
	if got := listRepo(ts2); len(got) != 4 {
		t.Errorf("repository lists %d sessions after the two new runs, want 4", len(got))
	}
}

// TestDaemonRepositoryGuards: warm_start needs a repository, specs may not
// name their own repository path, and repository routes 404 without -repo.
func TestDaemonRepositoryGuards(t *testing.T) {
	ts := newTestServer(t) // no RepoDir
	_, code, body := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "ituned",
		"seed": 1, "budget": {"trials": 2}, "warm_start": true}`)
	if code != http.StatusBadRequest {
		t.Errorf("warm_start without repository = %d, want 400 (%v)", code, body)
	}
	resp, err := http.Get(ts.URL + "/repository/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /repository/sessions without -repo = %d, want 404", resp.StatusCode)
	}

	ts2, _ := newTestServerWith(t, Options{Workers: 1, RepoDir: t.TempDir()})
	_, code, body = postSpec(t, ts2, `{
		"system": "dbms", "workload": "tpch", "tuner": "ituned",
		"seed": 1, "budget": {"trials": 2}, "repository": "/elsewhere"}`)
	if code != http.StatusBadRequest {
		t.Errorf("spec with repository path = %d, want 400 (%v)", code, body)
	}
	// Warm-start on a tuner with no ask/tell form is a descriptive 400.
	_, code, body = postSpec(t, ts2, `{
		"system": "dbms", "workload": "tpch", "tuner": "colt",
		"seed": 1, "budget": {"trials": 2}, "warm_start": true}`)
	if code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body["error"]), "ask/tell") {
		t.Errorf("warm_start on colt = %d %v, want 400 about ask/tell", code, body)
	}
}

// unreadableCorpus is a repository whose per-system read fails.
type unreadableCorpus struct{ store.Store }

func (unreadableCorpus) ForSystem(string) ([]tune.SessionRecord, error) {
	return nil, errors.New("segment unreadable")
}

// TestDaemonCorpusReadErrorFailsSubmission: a repository-driven tuner reads
// its history while the job is built, so an unreadable corpus is an error on
// the POST — not a 201 and a session that fails later — and costs a tuner
// that never reads the corpus nothing.
func TestDaemonCorpusReadErrorFailsSubmission(t *testing.T) {
	ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: t.TempDir()})
	srv.repo = unreadableCorpus{srv.repo}
	_, code, body := postSpec(t, ts, `{"system": "spark", "workload": "pagerank", "tuner": "ottertune", "budget": {"trials": 8}}`)
	if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "segment unreadable") {
		t.Errorf("ottertune on an unreadable corpus = %d %q, want 400 naming the read error", code, msg)
	}
	id, code, body := postSpec(t, ts, `{"system": "spark", "workload": "pagerank", "tuner": "ituned", "budget": {"trials": 8}, "warm_start": true}`)
	if code != http.StatusCreated {
		t.Fatalf("ituned on the same repository = %d %v, want 201", code, body)
	}
	if st := waitDone(t, ts, id); st["state"] != "done" {
		t.Errorf("ituned session ended %v", st)
	}
}

// TestDaemonRepositoryImportAndDelete: records can be archived directly
// over HTTP, warm-starting transfers from them, and DELETE removes them.
func TestDaemonRepositoryImportAndDelete(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 1, RepoDir: t.TempDir()})
	// Import a record (the migration path).
	rec := `{"system": "dbms", "workload": "tpch", "param_names": ["x"],
	         "trials": [{"vector": [0.5], "time": 10}]}`
	resp, err := http.Post(ts.URL+"/repository/sessions", "application/json", strings.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]any
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import = %d %v", resp.StatusCode, created)
	}
	id := int(created["id"].(float64))

	// The served wire form pipes back in verbatim: GET a record and POST
	// it to the same daemon (the daemon-to-daemon migration path). The id
	// is reassigned.
	gresp, err := http.Get(fmt.Sprintf("%s/repository/sessions/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	reimport, err := http.Post(ts.URL+"/repository/sessions", "application/json", bytes.NewReader(served))
	if err != nil {
		t.Fatal(err)
	}
	var re map[string]any
	err = json.NewDecoder(reimport.Body).Decode(&re)
	reimport.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if reimport.StatusCode != http.StatusCreated {
		t.Fatalf("re-import of served record = %d %v", reimport.StatusCode, re)
	}
	if reID := int(re["id"].(float64)); reID == id {
		t.Errorf("re-import kept the old id %d; ids must be store-assigned", reID)
	}

	// Invalid imports get descriptive 400s.
	for _, bad := range []string{`{not json`, `{"system": "", "trials": []}`} {
		r2, err := http.Post(ts.URL+"/repository/sessions", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("import %q = %d, want 400", bad, r2.StatusCode)
		}
	}

	del := func(path string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := del(fmt.Sprintf("/repository/sessions/%d", id)); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if code := del(fmt.Sprintf("/repository/sessions/%d", id)); code != http.StatusNotFound {
		t.Errorf("second DELETE = %d, want 404", code)
	}
	if code := del("/repository/sessions/bogus"); code != http.StatusNotFound {
		t.Errorf("DELETE non-numeric id = %d, want 404", code)
	}
}
