package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
)

// sessionOutcome is what one client saw of one session, timed by the
// client. Durations are milliseconds.
type sessionOutcome struct {
	index   int
	err     error             // nil: reached session_done in state done with a best
	wallMS  float64           // POST sent → session_done frame read
	firstMS float64           // POST sent → first SSE frame read
	trials  int               // trial_done + trial_pruned frames
	events  int               // SSE frames
	bytes   int               // SSE data bytes
	best    float64           // final best objective (simulated seconds)
	status  int               // what POST /sessions answered
	digest  [sha256.Size]byte // over the session's SSE frames
	nearest [sha256.Size]byte // of the nearest lookup's answer (repository workloads)
	// Spans around the individual HTTP calls — the daemon.* layer metrics.
	createMS, deleteMS, nearestMS float64
	// replayUS is, per event, how long a second GET of the finished
	// session's stream took (traced pass only).
	replayUS float64
}

// client is one closed-loop caller: one goroutine, one keep-alive
// connection, the next session only after the previous one is done and
// deleted.
type client struct {
	http *http.Client
	base string
	// gapsMS collects the gaps between consecutive trial_done frames of
	// each session, as this client read them.
	gapsMS []float64
	// trialEvents counts trial frames across all clients as they are read,
	// so the window sampler can take the count at the instant the measured
	// window closes.
	trialEvents *atomic.Int64
	// tr, in the traced HTTP pass, receives a span around every HTTP call
	// and turns on the extra replay request; nil in the end-to-end pass.
	tr *tracer
}

func newClient(base string, trialEvents *atomic.Int64, tr *tracer) *client {
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: transport}, base: base, trialEvents: trialEvents, tr: tr}
}

// span records one HTTP call of session i in the traced pass.
func (c *client) span(name string, i int, start time.Time) {
	if c.tr != nil {
		c.tr.add(name, start, -1, i)
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// do sends one request and returns the status and the fully read body, so
// the connection goes back to the pool.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sessionDone is the part of a session_done frame the check needs.
type sessionDone struct {
	Final *struct {
		Best       map[string]string `json:"best"`
		BestResult struct {
			Time   float64 `json:"time"`
			Failed bool    `json:"failed"`
		} `json:"best_result"`
	} `json:"final"`
	Error string `json:"error"`
}

// runSession drives session i to completion: POST the spec, read the SSE
// stream to session_done, DELETE the finished session and, on a repository
// workload, issue the nearest lookup that follows it. The lookup's answer
// is digested too: it is as deterministic as the stream.
func (c *client) runSession(ctx context.Context, i int, spec repro.Spec, nearest map[string]float64) sessionOutcome {
	out := sessionOutcome{index: i}
	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	code, data, err := c.do(ctx, http.MethodPost, "/sessions", body)
	out.createMS = ms(time.Since(t0))
	c.span("daemon.create", i, t0)
	if err != nil {
		out.err = fmt.Errorf("POST /sessions: %w", err)
		return out
	}
	out.status = code
	if code != http.StatusCreated {
		out.err = fmt.Errorf("POST /sessions: status %d: %s", code, bytes.TrimSpace(data))
		return out
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &created); err != nil || created.ID == "" {
		out.err = fmt.Errorf("POST /sessions: unusable answer %q", data)
		return out
	}
	ts := time.Now()
	out.err = c.stream(ctx, t0, created.ID, &out)
	c.span("daemon.events", i, ts)
	if c.tr != nil && out.err == nil {
		out.replayUS, out.err = c.replay(ctx, i, created.ID)
	}
	// Delete even after a failed stream: the daemon's session table is the
	// memory a long-lived client has to release.
	td := time.Now()
	code, data, err = c.do(ctx, http.MethodDelete, "/sessions/"+created.ID, nil)
	out.deleteMS = ms(time.Since(td))
	c.span("daemon.delete", i, td)
	if out.err == nil && (err != nil || code != http.StatusOK) {
		out.err = fmt.Errorf("DELETE /sessions/%s: status %d, %v: %s", created.ID, code, err, bytes.TrimSpace(data))
	}
	if nearest == nil || out.err != nil {
		return out
	}
	q, err := json.Marshal(map[string]any{"system": spec.System, "features": nearest})
	if err != nil {
		out.err = err
		return out
	}
	tn := time.Now()
	code, data, err = c.do(ctx, http.MethodPost, "/repository/nearest", q)
	out.nearestMS = ms(time.Since(tn))
	c.span("daemon.nearest", i, tn)
	if err != nil || code != http.StatusOK {
		out.err = fmt.Errorf("POST /repository/nearest: status %d, %v: %s", code, err, bytes.TrimSpace(data))
		return out
	}
	out.nearest = sha256.Sum256(bytes.TrimSpace(data))
	return out
}

// stream reads one session's SSE stream to its end, filling out's timings,
// counts, digest and final objective.
func (c *client) stream(ctx context.Context, t0 time.Time, id string, out *sessionOutcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/sessions/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("GET events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	fr := newFrameReader(resp.Body)
	digest := newStreamDigest()
	var lastTrial time.Time
	var done *sessionDone
	for {
		f, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading events: %w", err)
		}
		now := time.Now()
		if out.events == 0 {
			out.firstMS = ms(now.Sub(t0))
		}
		out.events++
		out.bytes += len(f.Data)
		digest.add(f.Kind, f.Data)
		switch f.Kind {
		case string(repro.TrialDone):
			if !lastTrial.IsZero() {
				c.gapsMS = append(c.gapsMS, ms(now.Sub(lastTrial)))
			}
			lastTrial = now
			out.trials++
			c.trialEvents.Add(1)
		case string(repro.TrialPruned):
			out.trials++
			c.trialEvents.Add(1)
		case string(repro.SessionDone):
			out.wallMS = ms(now.Sub(t0))
			done = new(sessionDone)
			if err := json.Unmarshal(f.Data, done); err != nil {
				return fmt.Errorf("decoding session_done: %w", err)
			}
		}
	}
	out.digest = digest.sum()
	switch {
	case done == nil:
		return fmt.Errorf("stream ended without session_done")
	case done.Error != "":
		return fmt.Errorf("session failed: %s", done.Error)
	case done.Final == nil || len(done.Final.Best) == 0:
		return fmt.Errorf("session_done carries no best configuration")
	}
	out.best = done.Final.BestResult.Time
	if done.Final.BestResult.Failed {
		out.best *= 10 // tune.Result.Objective's failure penalty
	}
	return nil
}

// replay reads a finished session's stream again from the first event, as a
// reconnecting client would, and returns the time per event.
func (c *client) replay(ctx context.Context, i int, id string) (float64, error) {
	start := time.Now()
	defer c.span("daemon.replay", i, start)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/sessions/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("GET events (replay): %w", err)
	}
	defer resp.Body.Close()
	fr := newFrameReader(resp.Body)
	n := 0
	for {
		if _, err := fr.next(); err == io.EOF {
			break
		} else if err != nil {
			return 0, fmt.Errorf("reading replayed events: %w", err)
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("replayed stream is empty")
	}
	return us(time.Since(start)) / float64(n), nil
}

// window is what the sampler read at the instant the measured window
// closed: the deadline, or the last completion when a session cap ends the
// run first.
type window struct {
	seconds float64
	trials  int64
	cpuS    float64 // children's user+sys CPU inside the window
	rssMB   float64 // daemon VmHWM at the close
	// clientCPUS is the load generator's own user+sys CPU inside the
	// window — the yardstick hostSlowdown reads the host's speed from.
	clientCPUS float64
}

// loadResult is one measured phase.
type loadResult struct {
	outcomes []sessionOutcome // by session index
	gapsMS   []float64
	window   window
}

// drive runs the closed loop: n clients take sessions 0,1,2,… of the
// workload's list from a shared counter until the window has lasted seconds
// (0 = no deadline) or limit sessions have been handed out (0 = no cap). A
// session taken before the deadline is driven to its end and counted in the
// latency samples; throughput, CPU and RSS are read at the deadline itself,
// so the idle tail while the last session finishes dilutes nothing.
func drive(ctx context.Context, svc *service, w *workload, seed int64, first, limit int, seconds float64, n int, tr *tracer) (loadResult, error) {
	var res loadResult
	var trialEvents atomic.Int64
	pids := svc.pids()
	cpu0, err := cpuOf(pids)
	if err != nil {
		return res, err
	}
	self0 := selfCPUSeconds()
	start := time.Now()
	allDone := make(chan struct{})
	var sampleErr error
	var sampled sync.WaitGroup
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		var timer <-chan time.Time
		if seconds > 0 {
			t := time.NewTimer(time.Duration(seconds * float64(time.Second)))
			defer t.Stop()
			timer = t.C
		}
		select {
		case <-timer:
		case <-allDone:
		}
		res.window.seconds = time.Since(start).Seconds()
		res.window.trials = trialEvents.Load()
		res.window.clientCPUS = selfCPUSeconds() - self0
		cpu1, err := cpuOf(pids)
		if err != nil {
			sampleErr = err
			return
		}
		res.window.cpuS = cpu1 - cpu0
		res.window.rssMB, sampleErr = peakRSSMB(pids[0])
	}()

	clients := make([]*client, n)
	perClient := make([][]sessionOutcome, n)
	for k := range clients {
		clients[k] = newClient(svc.daemon.base, &trialEvents, tr)
	}
	closedLoop(ctx, first, limit, seconds, n, func(k, i int) {
		var q map[string]float64
		if w.repo {
			var err error
			if q, err = nearestQuery(seed, i); err != nil {
				perClient[k] = append(perClient[k], sessionOutcome{index: i, err: err})
				return
			}
		}
		perClient[k] = append(perClient[k], clients[k].runSession(ctx, i, w.spec(seed, i), q))
	})
	for _, c := range clients {
		c.close()
	}
	close(allDone)
	sampled.Wait()
	if sampleErr != nil {
		return res, sampleErr
	}
	total := 0
	for k := range perClient {
		total += len(perClient[k])
		res.gapsMS = append(res.gapsMS, clients[k].gapsMS...)
	}
	res.outcomes = make([]sessionOutcome, total)
	for k := range perClient {
		for _, o := range perClient[k] {
			res.outcomes[o.index-first] = o
		}
	}
	return res, ctx.Err()
}

// closedLoop is the load model: n clients (goroutines k = 0..n-1) take
// session indices first, first+1, … from a shared counter, each taking its
// next only after session returned, until seconds have passed (0 = no
// deadline) or limit indices have been handed out (0 = no cap).
func closedLoop(ctx context.Context, first, limit int, seconds float64, n int, session func(k, i int)) {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for ctx.Err() == nil {
				if seconds > 0 && time.Since(start).Seconds() >= seconds {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= first+limit {
					return
				}
				session(k, i)
			}
		}(k)
	}
	wg.Wait()
}

// cpuOf sums the user+sys CPU seconds of the given processes.
func cpuOf(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		s, err := cpuSeconds(pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}
