package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tune/store"
)

const longSpec = `{"system": "dbms", "workload": "tpch", "tuner": "random",
	"seed": %d, "budget": {"trials": 100000}}`

// TestAdmissionSessionCap: past -max-sessions, POST /sessions answers 429
// with a Retry-After hint; finishing (or deleting) a session readmits, and
// healthz counts the rejections.
func TestAdmissionSessionCap(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 1, MaxSessions: 2})
	var ids []string
	for i := 0; i < 2; i++ {
		id, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, i))
		if code != http.StatusCreated {
			t.Fatalf("POST %d = %d", i, code)
		}
		ids = append(ids, id)
	}
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(longSpec, 9)))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST past the cap = %d, want 429 (%v)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "session cap") {
		t.Errorf("429 error = %q, want a session-cap explanation", msg)
	}

	// Stopping one unfinished session frees its slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+ids[0], nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 10))
		if code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still rejected after freeing a slot: %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Admission struct {
			MaxSessions int   `json:"max_sessions"`
			Rejected    int64 `json:"rejected"`
		} `json:"admission"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Admission.MaxSessions != 2 || hz.Admission.Rejected < 1 {
		t.Errorf("healthz admission = %+v", hz.Admission)
	}
}

// TestAdmissionFlood: a concurrent burst far past -max-sessions is shed, not
// served and not failed — every POST is answered 201 or 429-with-Retry-After
// (never a 5xx), healthz stays ok and its rejection counter equals the 429s
// the clients saw, and deleting the admitted sessions reopens admission.
func TestAdmissionFlood(t *testing.T) {
	const burst, maxSessions = 200, 8
	ts, _ := newTestServerWith(t, Options{Workers: 2, MaxSessions: maxSessions})
	type answer struct {
		code       int
		id         string
		retryAfter string
	}
	answers := make([]answer, burst)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(fmt.Sprintf(longSpec, i)))
			if err != nil {
				t.Errorf("POST %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var body struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Errorf("POST %d: undecodable %d answer: %v", i, resp.StatusCode, err)
			}
			answers[i] = answer{resp.StatusCode, body.ID, resp.Header.Get("Retry-After")}
		}()
	}
	wg.Wait()
	var admitted []string
	shed := 0
	for i, a := range answers {
		switch {
		case a.code == http.StatusCreated && a.id != "":
			admitted = append(admitted, a.id)
		case a.code == http.StatusTooManyRequests && a.retryAfter != "":
			shed++
		default:
			t.Errorf("POST %d answered %d (id %q, Retry-After %q): want 201 with an id or 429 with Retry-After", i, a.code, a.id, a.retryAfter)
		}
	}
	// No admitted session can finish inside the burst (100 000 trials each),
	// so the cap binds exactly: admission reserves its place in the table.
	if len(admitted) == 0 || len(admitted) > maxSessions || shed == 0 {
		t.Fatalf("%d admitted, %d shed of %d: the burst must split across the cap of %d and never exceed it", len(admitted), shed, burst, maxSessions)
	}

	hz := getJSON(t, ts.URL+"/healthz") // fails the test on anything but a 200
	if hz["status"] != "ok" {
		t.Errorf("healthz status after the flood = %v, want ok", hz["status"])
	}
	if adm, _ := hz["admission"].(map[string]any); adm["rejected"] != float64(shed) {
		t.Errorf("healthz counts %v rejections, clients saw %d", adm["rejected"], shed)
	}

	for _, id := range admitted {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitFor(t, "admission to reopen after deleting the admitted sessions", func() bool {
		_, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, burst))
		return code == http.StatusCreated
	})
}

func TestAdmissionFloodRace5(t *testing.T) { TestAdmissionFlood(t) }

// TestAdmissionQueueCap: -max-queue bounds sessions waiting for a
// scheduler slot independently of the total session cap.
func TestAdmissionQueueCap(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 1, MaxQueue: 1})
	// One running (holds the only worker), one queued: both admitted.
	for i := 0; i < 2; i++ {
		if _, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, i)); code != http.StatusCreated {
			t.Fatalf("POST %d = %d", i, code)
		}
	}
	// Admission counts live states; wait until exactly one is pending.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, code, body := postSpec(t, ts, fmt.Sprintf(longSpec, 9))
		if code == http.StatusTooManyRequests {
			if msg, _ := body["error"].(string); !strings.Contains(msg, "queue depth") {
				t.Errorf("429 error = %q, want a queue-depth explanation", msg)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue cap never enforced; last POST = %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSSEResumeWithLastEventID: reconnecting with Last-Event-ID (or the
// ?after= query form) resumes the stream exactly past the delivered prefix.
func TestSSEResumeWithLastEventID(t *testing.T) {
	ts := newTestServer(t)
	id, code, _ := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 7, "budget": {"trials": 6}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	full := readSSE(t, resp)
	if len(full) < 4 || full[len(full)-1].Name != "session_done" {
		t.Fatalf("stream malformed: %d events", len(full))
	}
	cut := len(full) / 2
	resume := func(hdr, query string) []sseEvent {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sessions/"+id+"/events"+query, nil)
		if hdr != "" {
			req.Header.Set("Last-Event-ID", hdr)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return readSSE(t, r)
	}
	for name, got := range map[string][]sseEvent{
		"header": resume(full[cut].ID, ""),
		"query":  resume("", "?after="+full[cut].ID),
	} {
		want := full[cut+1:]
		if len(got) != len(want) {
			t.Fatalf("%s resume from id %s: %d events, want %d", name, full[cut].ID, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Name != want[i].Name || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s resume event %d differs: %s %s vs %s %s",
					name, i, got[i].Name, got[i].Data, want[i].Name, want[i].Data)
			}
		}
	}
}

// TestSSECompactedSessionStreamsCheckpoint: a session longer than its event
// buffer serves reconnecting subscribers a stream_checkpoint first, whose
// summary accounts for the full run together with the retained tail.
func TestSSECompactedSessionStreamsCheckpoint(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 1, EventBuffer: 8})
	id, code, _ := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 3, "budget": {"trials": 20}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	waitDone(t, ts, id)
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp)
	if evs[0].Name != "stream_checkpoint" {
		t.Fatalf("first event = %q, want stream_checkpoint", evs[0].Name)
	}
	var sum struct {
		Summary struct {
			CoveredThrough int `json:"covered_through"`
			TrialsDone     int `json:"trials_done"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(evs[0].Data, &sum); err != nil {
		t.Fatal(err)
	}
	tailDone := 0
	for _, ev := range evs[1:] {
		if ev.Name == "trial_done" {
			tailDone++
		}
	}
	if sum.Summary.TrialsDone+tailDone != 20 {
		t.Errorf("checkpoint %d + tail %d trial_done, want 20", sum.Summary.TrialsDone, tailDone)
	}
	if evs[len(evs)-1].Name != "session_done" {
		t.Errorf("stream ended with %q", evs[len(evs)-1].Name)
	}
}

// TestSSESubscriberCleanup is the disconnect-leak regression test: SSE
// clients that vanish mid-stream release their subscriptions (the per-run
// gauge healthz sums returns to zero) while the session keeps running.
func TestSSESubscriberCleanup(t *testing.T) {
	ts, srv := newTestServerWith(t, Options{Workers: 1})
	id, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 1))
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	srv.mu.Lock()
	run := srv.sessions[id].Run
	srv.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	const n = 4
	for i := 0; i < n; i++ {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sessions/"+id+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
	}
	waitFor(t, "subscribers to attach", func() bool { return run.Subscribers() == n })
	cancel()
	waitFor(t, "subscribers to clean up after disconnect", func() bool { return run.Subscribers() == 0 })
}

// waitFor polls cond with a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainClosesStreamsAndRefusesWork: Drain ends open SSE streams with a
// terminal "draining" event, flips admission to 503, and checkpoints
// in-flight sessions so a later start can resume them.
func TestDrainClosesStreamsAndRefusesWork(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	id, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 2))
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	streamed := make(chan []sseEvent, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
		if err != nil {
			streamed <- nil
			return
		}
		streamed <- readSSE(t, resp)
	}()
	waitFor(t, "the stream to attach", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.sessions[id].Run.Subscribers() > 0
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	evs := <-streamed
	if evs == nil || len(evs) == 0 {
		t.Fatal("drained stream delivered nothing")
	}
	if last := evs[len(evs)-1]; last.Name != "draining" {
		t.Fatalf("stream ended with %q, want draining", last.Name)
	}
	if _, code, body := postSpec(t, ts, fmt.Sprintf(longSpec, 3)); code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d %v, want 503", code, body)
	}
	// The in-flight session's checkpoint survives for the next start.
	cps, err := srv.repo.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].SID != id {
		t.Fatalf("checkpoints after drain = %+v, want one for %s", cps, id)
	}
}

// TestRestartResumesInFlightSessions is the in-process crash-resume
// acceptance flow: a daemon is drained mid-session, a fresh daemon on the
// same repository resumes it and is drained in turn, and a third resumes
// that — same session id, resumed flag set — and the final incumbent and
// recorded event stream are byte-identical to an uninterrupted run of the
// same spec and seed.
func TestRestartResumesInFlightSessions(t *testing.T) {
	// A cheap proposer with a big budget: the session runs several times
	// longer than both observe-checkpoint→drain windows together (they close
	// within the first few hundred trials), so each drain catches it
	// mid-flight.
	t.Run("hyperband(random)", func(t *testing.T) {
		restartResumes(t, `{"system": "dbms", "workload": "tpch", "tuner": "random",
			"seed": 42, "budget": {"trials": 2000}, "target": {"scale_gb": 2},
			"fidelity": {"strategy": "hyperband"}}`)
	})
	// A sequential body: every trial is a batch boundary, and each resume
	// re-runs the body from its first line against the replayed history.
	t.Run("rrs", func(t *testing.T) {
		restartResumes(t, `{"system": "dbms", "workload": "tpch", "tuner": "rrs",
			"seed": 42, "budget": {"trials": 1500}, "target": {"scale_gb": 2}}`)
	})
}

func TestRestartResumesInFlightSessionsRace3(t *testing.T) { TestRestartResumesInFlightSessions(t) }

func restartResumes(t *testing.T, spec string) {
	// Reference: the same spec, uninterrupted.
	tsRef := newTestServer(t)
	refID, code, _ := postSpec(t, tsRef, spec)
	if code != http.StatusCreated {
		t.Fatalf("reference POST = %d", code)
	}
	refSt := waitDone(t, tsRef, refID)
	refResp, err := http.Get(tsRef.URL + "/sessions/" + refID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	refEvents := readSSE(t, refResp)

	// Interrupted twice: drain mid-session and restart on the same
	// repository, then drain that lifetime too once the resumed session has
	// made a later boundary durable — appending to a checkpoint log this
	// process did not create — and restart again.
	dir := t.TempDir()
	var id, ckptFile string
	durable := 0 // trials in the checkpoint the previous lifetime left behind
	for life := 1; life <= 2; life++ {
		ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
		if life == 1 {
			var code int
			if id, code, _ = postSpec(t, ts, spec); code != http.StatusCreated {
				t.Fatalf("POST = %d", code)
			}
			ckptFile = filepath.Join(dir, "checkpoints", id+".jsonl")
		} else if srv.resumed != 1 {
			t.Fatalf("lifetime %d resumed %d sessions, want 1", life, srv.resumed)
		}
		// Wait until a checkpoint with new observations is durable — each
		// resume must genuinely replay history, not restart from scratch.
		waitFor(t, "a durable checkpoint with new observations", func() bool {
			cp, err := store.ReadCheckpoint(ckptFile)
			return err == nil && cp.Trials > durable
		})
		drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		ts.Close()
		srv.Close()
		cp, err := store.ReadCheckpoint(ckptFile)
		if err != nil {
			t.Fatalf("lifetime %d left no readable checkpoint: %v", life, err)
		}
		durable = cp.Trials
		t.Logf("lifetime %d drained with %d trials durable", life, durable)
	}

	ts2, srv2 := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	if srv2.resumed != 1 {
		t.Fatalf("restarted daemon resumed %d sessions, want 1", srv2.resumed)
	}
	st := waitDone(t, ts2, id)
	if st["state"] != "done" {
		t.Fatalf("resumed session = %v", st)
	}
	if r, _ := st["resumed"].(bool); !r {
		t.Errorf("status resumed flag = %v, want true", st["resumed"])
	}
	if got, want := bestTime(t, st), bestTime(t, refSt); got != want {
		t.Errorf("resumed best time = %v, uninterrupted = %v", got, want)
	}
	// The recorded event stream is byte-identical to the uninterrupted one.
	resp, err := http.Get(ts2.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	if len(events) != len(refEvents) {
		t.Fatalf("resumed stream has %d events, uninterrupted %d", len(events), len(refEvents))
	}
	for i := range refEvents {
		if events[i].ID != refEvents[i].ID || events[i].Name != refEvents[i].Name ||
			!bytes.Equal(events[i].Data, refEvents[i].Data) {
			t.Fatalf("event %d differs:\n  uninterrupted: %s %s\n  resumed:       %s %s",
				i, refEvents[i].Name, refEvents[i].Data, events[i].Name, events[i].Data)
		}
	}
	// Success reaps the checkpoint: nothing left to resurrect.
	waitFor(t, "the finished session's checkpoint to be reaped", func() bool {
		cps, err := srv2.repo.Checkpoints()
		return err == nil && len(cps) == 0
	})
}

// TestQueuedSessionSurvivesRestart: a session that never ran a trial (it
// was still queued when the daemon went down) is resumed from its
// admission-time checkpoint as a plain start.
func TestQueuedSessionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	// The first session holds the only worker; the second stays queued.
	if _, code, _ := postSpec(t, ts1, fmt.Sprintf(longSpec, 5)); code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	queued, code, _ := postSpec(t, ts1, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 6, "budget": {"trials": 3}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST queued = %d", code)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv1.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts1.Close()
	srv1.Close()

	ts2, srv2 := newTestServerWith(t, Options{Workers: 2, RepoDir: dir})
	if srv2.resumed != 2 {
		t.Fatalf("resumed %d sessions, want 2", srv2.resumed)
	}
	st := waitDone(t, ts2, queued)
	if st["state"] != "done" {
		t.Fatalf("queued session after restart = %v", st)
	}
	if n, _ := st["trials_done"].(float64); n != 3 {
		t.Errorf("trials_done = %v, want 3", st["trials_done"])
	}
}

// fullDisk is a repository whose boundary checkpoint saves fail on demand
// (admission saves carry no trials and pass through).
type fullDisk struct {
	store.Store
	full atomic.Bool
}

func (f *fullDisk) SaveCheckpoint(cp store.SessionCheckpoint) error {
	if f.full.Load() && cp.Trials > 0 {
		return errors.New("no space left on device")
	}
	return f.Store.SaveCheckpoint(cp)
}

// TestCheckpointErrorSurfacesInStatus: a boundary save that fails is not
// silent — the session reports checkpoint_error while its latest boundary is
// not durable — and because saves are state-based the first one that succeeds
// again makes the whole history durable and clears the report.
func TestCheckpointErrorSurfacesInStatus(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	disk := &fullDisk{Store: srv.repo}
	disk.full.Store(true)
	srv.repo = disk
	// Rung boundaries every few trials, and a budget that outlasts the test.
	id, code, _ := postSpec(t, ts, `{"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 3, "budget": {"trials": 50000}, "target": {"scale_gb": 2},
		"fidelity": {"strategy": "hyperband"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	checkpointError := func() string {
		resp, err := http.Get(ts.URL + "/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			CheckpointError string `json:"checkpoint_error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.CheckpointError
	}
	waitFor(t, "the failed save to be reported", func() bool {
		return strings.Contains(checkpointError(), "no space left on device")
	})
	ckptFile := filepath.Join(dir, "checkpoints", id+".jsonl")
	if cp, err := store.ReadCheckpoint(ckptFile); err != nil || cp.Trials != 0 {
		t.Fatalf("with every boundary save failing the durable checkpoint has %d trials (err %v), want the admission state", cp.Trials, err)
	}

	disk.full.Store(false)
	waitFor(t, "the report to clear once a save succeeds", func() bool { return checkpointError() == "" })
	if cp, err := store.ReadCheckpoint(ckptFile); err != nil || cp.Trials == 0 {
		t.Fatalf("after recovery the durable checkpoint has %d trials (err %v), want the full history", cp.Trials, err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// sseFrames parses an SSE body frame by frame as it arrives; the channel
// closes when the body ends (or is closed).
func sseFrames(body io.Reader) <-chan sseEvent {
	out := make(chan sseEvent)
	go func() {
		defer close(out)
		var cur sseEvent
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.ID = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				cur.Name = strings.TrimPrefix(line, "event: ")
			case line == "" && cur.Name != "":
				out <- cur
				cur = sseEvent{}
			}
		}
	}()
	return out
}

// TestDrainFrameKeepsTheClientsPosition: the terminal draining frame carries
// the last id its client was sent, so an EventSource reconnecting after the
// restart (Last-Event-ID is the last id it saw) resumes past everything it
// already holds instead of replaying the stream from the start.
func TestDrainFrameKeepsTheClientsPosition(t *testing.T) {
	dir := t.TempDir()
	o := Options{Workers: 1, RepoDir: dir, EventBuffer: 1 << 20} // more events than the session has
	ts, srv := newTestServerWith(t, o)
	id, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 4))
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := sseFrames(resp.Body)
	held := ""                // an EventSource keeps the last id field it saw
	seen := map[string]bool{} // ids of the events the client holds
	drained := make(chan error, 1)
	last := sseEvent{}
	for ev := range frames {
		if ev.ID != "" {
			held = ev.ID
		}
		if ev.Name != "draining" {
			seen[ev.ID] = true
		}
		if len(seen) == 5 { // the client holds a few events: drain under it
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				drained <- srv.Drain(ctx)
			}()
		}
		last = ev
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if last.Name != "draining" {
		t.Fatalf("drained stream ended with %q, want draining", last.Name)
	}
	ts.Close()
	srv.Close()

	ts2, srv2 := newTestServerWith(t, o)
	defer srv2.Drain(context.Background())
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/sessions/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", held)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	after := sseFrames(resp2.Body)
	n := 0
	for ev := range after {
		if seen[ev.ID] {
			t.Errorf("reconnecting with Last-Event-ID %s replayed event %s, which the client already holds", held, ev.ID)
		}
		if n++; n == 20 {
			break
		}
	}
	resp2.Body.Close()
	for range after {
	}
	if n == 0 {
		t.Fatal("no event arrived after the reconnect")
	}
}
