package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/mathx/linalg"
	"repro/internal/obs"
	"repro/internal/tune"
)

// EvaluatorOptions configures an evaluator server.
type EvaluatorOptions struct {
	// Name identifies the evaluator in registrations and health reports
	// (default "evaluator").
	Name string
	// Workers bounds concurrent evaluations; excess assignments queue
	// server-side with their lease's heartbeats still flowing (default 1).
	Workers int
	// HeartbeatEvery is the interval between heartbeat frames on an open
	// lease (default 500ms). Info reports it, and a coordinator declares a
	// lease lost after ten of these pass without a frame.
	HeartbeatEvery time.Duration
}

// Evaluator serves trial evaluations over HTTP/JSON. It rebuilds targets
// from assignment sysmodels through the repro registry (caching them — a
// target is stateless under RunIndexed, so one instance serves every
// session that names the same sysmodel) and streams each evaluation's
// lease as heartbeat frames followed by one completion.
type Evaluator struct {
	opts EvaluatorOptions
	sem  chan struct{}

	evaluations atomic.Int64
	inflight    atomic.Int64

	mu      sync.Mutex
	targets map[string]*boundModel // sysmodel key → built target
}

// boundModel caches one reconstructed target with its resolved capabilities.
type boundModel struct {
	space *tune.Space
	caps  tune.Capabilities
}

// NewEvaluator returns an evaluator server.
func NewEvaluator(o EvaluatorOptions) *Evaluator {
	if o.Name == "" {
		o.Name = "evaluator"
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 500 * time.Millisecond
	}
	return &Evaluator{
		opts:    o,
		sem:     make(chan struct{}, o.Workers),
		targets: map[string]*boundModel{},
	}
}

// Info reports the evaluator's identity and lifetime counters.
func (e *Evaluator) Info() Info {
	return Info{
		Name:        e.opts.Name,
		Workers:     e.opts.Workers,
		HeartbeatMs: e.opts.HeartbeatEvery.Milliseconds(),
		Evaluations: e.evaluations.Load(),
		InFlight:    e.inflight.Load(),
	}
}

// Handler returns the evaluator's HTTP handler:
//
//	POST /evaluate  lease one TrialAssignment; ndjson heartbeat frames
//	                stream until the TrialCompletion frame closes the lease
//	POST /register  a coordinator announces itself; returns Info
//	GET  /healthz   liveness + Info + the linalg kernel in use
//	GET  /metrics   runtime gauges, Prometheus text (obs.ServeMetrics)
func (e *Evaluator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /evaluate", e.evaluate)
	mux.HandleFunc("POST /register", e.register)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "info": e.Info(), "linalg_kernel": linalg.Kernel()})
	})
	mux.HandleFunc("GET /metrics", obs.ServeMetrics)
	return mux
}

func (e *Evaluator) register(w http.ResponseWriter, r *http.Request) {
	var reg registration
	if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, "decoding registration: "+err.Error()), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(e.Info())
}

// evaluate serves one lease: decode and validate the assignment, then
// stream heartbeats while the evaluation queues and runs, closing with the
// completion frame. The client aborting the request (rung cancelled,
// coordinator gone) cancels the evaluation through the request context.
func (e *Evaluator) evaluate(w http.ResponseWriter, r *http.Request) {
	var a TrialAssignment
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, "decoding assignment: "+err.Error()), http.StatusBadRequest)
		return
	}
	if err := a.Validate(); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, `{"error":"response writer does not support streaming"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	enc := json.NewEncoder(w)
	done := make(chan TrialCompletion, 1)
	go func() { done <- e.run(r.Context(), a) }()
	ticker := time.NewTicker(e.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case c := <-done:
			_ = enc.Encode(frame{Completion: &c})
			return
		case <-ticker.C:
			if err := enc.Encode(frame{Heartbeat: true}); err != nil {
				return // client gone; the request context cancels the run
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// run executes one assignment: worker-slot admission, target
// reconstruction, indexed evaluation.
func (e *Evaluator) run(ctx context.Context, a TrialAssignment) TrialCompletion {
	c := TrialCompletion{ID: a.ID, RunIndex: a.RunIndex}
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	select {
	case e.sem <- struct{}{}:
		defer func() { <-e.sem }()
	case <-ctx.Done():
		c.Err = ctx.Err().Error()
		return c
	}
	bm, err := e.target(a.SysModel)
	if err != nil {
		c.Err = err.Error()
		return c
	}
	if len(a.Config) != bm.space.Dim() {
		c.Err = fmt.Sprintf("dist: config has %d coordinates, target space has %d", len(a.Config), bm.space.Dim())
		return c
	}
	c.Result, err = bm.caps.Eval(ctx, a.RunIndex, tune.Candidate{Config: bm.space.FromVector(a.Config), Fidelity: a.Fidelity})
	if err != nil {
		c.Err = "dist: " + err.Error()
		return c
	}
	e.evaluations.Add(1)
	return c
}

// target reconstructs (or returns the cached) target for a sysmodel.
// RunIndexed is pure in (seed, index, config) and safe for concurrent use,
// so one instance serves every lease naming the same sysmodel; the
// instance's own run counter is never consulted — indices always arrive
// reserved by the coordinator.
func (e *Evaluator) target(m SysModel) (*boundModel, error) {
	key := m.key()
	e.mu.Lock()
	defer e.mu.Unlock()
	if bm, ok := e.targets[key]; ok {
		return bm, nil
	}
	t, err := repro.NewTarget(m.System, m.Workload, m.Seed, m.Target)
	if err != nil {
		return nil, err
	}
	bm := &boundModel{space: t.Space(), caps: tune.Resolve(t)}
	e.targets[key] = bm
	return bm, nil
}
