package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/tune"
)

// PoolOptions configures the coordinator-side evaluator pool.
type PoolOptions struct {
	// Name identifies the coordinator in registration handshakes
	// (default "coordinator").
	Name string
	// HeartbeatTimeout is how long a lease may go without a frame before
	// it is declared lost and the trial requeued (default 5s — ten beats
	// at the evaluator default).
	HeartbeatTimeout time.Duration
	// MaxRetries bounds how many times one trial is requeued after lease
	// loss before Evaluate gives up with an EvaluationLostError
	// (default 3; the first attempt is not a retry).
	MaxRetries int
	// RetryBackoff is the wait before the first retry, doubling per
	// subsequent retry (default 100ms).
	RetryBackoff time.Duration
}

// Pool is the client side of the evaluator fleet: it tracks registered
// evaluators, leases trials to them with heartbeat monitoring, and requeues
// lost leases with bounded backoff. Backend binds the pool to one sysmodel
// as an engine.RemoteBackend. Safe for concurrent use.
type Pool struct {
	opts    PoolOptions
	client  *http.Client
	retries atomic.Int64

	mu      sync.Mutex
	remotes []*remote
}

// remote is one fleet member with its routing state.
type remote struct {
	url     string
	name    string
	workers int

	inflight    atomic.Int64
	completed   atomic.Int64
	failures    atomic.Int64 // lifetime
	consecutive atomic.Int64 // reset on success; steers pick away

	mu      sync.Mutex
	lastErr string
}

func (r *remote) fail(err error) {
	r.failures.Add(1)
	r.consecutive.Add(1)
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

func (r *remote) ok() {
	r.completed.Add(1)
	r.consecutive.Store(0)
}

// RemoteHealth is one evaluator's entry in a fleet health report.
type RemoteHealth struct {
	URL       string `json:"url"`
	Name      string `json:"name,omitempty"`
	Workers   int    `json:"workers"`
	Healthy   bool   `json:"healthy"`
	InFlight  int64  `json:"in_flight"`
	Completed int64  `json:"completed"`
	Failures  int64  `json:"failures"`
	LastError string `json:"last_error,omitempty"`
}

// PermanentError is a deterministic evaluator-side failure — unknown
// system, wrong space dimension — that retrying on another evaluator would
// only reproduce, so the pool surfaces it immediately instead of burning
// retries.
type PermanentError struct {
	URL string
	Msg string
}

func (e *PermanentError) Error() string {
	return fmt.Sprintf("dist: evaluator %s: %s", e.URL, e.Msg)
}

// NewPool returns a pool over the given evaluator base URLs. Registration
// with each evaluator is best-effort: an evaluator that is down at
// construction still joins the fleet (with one assumed worker slot) and is
// steered away from by the lease router until it starts answering.
func NewPool(urls []string, o PoolOptions) *Pool {
	if o.Name == "" {
		o.Name = "coordinator"
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	p := &Pool{opts: o, client: &http.Client{}}
	for _, u := range urls {
		p.Add(u)
	}
	return p
}

// Add registers one evaluator by base URL (idempotent: re-adding an URL
// refreshes its registration instead of duplicating it). The handshake is
// best-effort; on failure the evaluator joins with one assumed worker slot
// and its health entry records the error.
func (p *Pool) Add(url string) {
	for len(url) > 0 && url[len(url)-1] == '/' {
		url = url[:len(url)-1]
	}
	p.mu.Lock()
	var r *remote
	for _, have := range p.remotes {
		if have.url == url {
			r = have
			break
		}
	}
	if r == nil {
		r = &remote{url: url, workers: 1}
		p.remotes = append(p.remotes, r)
	}
	p.mu.Unlock()
	info, err := p.register(r)
	if err != nil {
		r.fail(err)
		return
	}
	p.mu.Lock()
	r.name = info.Name
	if info.Workers > 0 {
		r.workers = info.Workers
	}
	p.mu.Unlock()
}

// register performs the POST /register handshake with one evaluator.
func (p *Pool) register(r *remote) (Info, error) {
	body, _ := json.Marshal(registration{Coordinator: p.opts.Name})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/register", bytes.NewReader(body))
	if err != nil {
		return Info{}, fmt.Errorf("dist: registering with %s: %w", r.url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return Info{}, fmt.Errorf("dist: registering with %s: %w", r.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Info{}, fmt.Errorf("dist: registering with %s: status %d", r.url, resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return Info{}, fmt.Errorf("dist: registering with %s: %w", r.url, err)
	}
	return info, nil
}

// Slots reports the fleet's total advertised worker slots.
func (p *Pool) Slots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.remotes {
		n += r.workers
	}
	return n
}

// Retries reports how many lease losses the pool has requeued, lifetime.
func (p *Pool) Retries() int64 { return p.retries.Load() }

// State reports the fleet's routing state without network I/O: an
// evaluator is healthy while it has no consecutive failures — the state the
// lease router steers by.
func (p *Pool) State() []RemoteHealth {
	// Add rewrites name and workers under p.mu, so they are copied under it.
	p.mu.Lock()
	remotes := make([]*remote, len(p.remotes))
	copy(remotes, p.remotes)
	out := make([]RemoteHealth, len(remotes))
	for i, r := range remotes {
		out[i] = RemoteHealth{URL: r.url, Name: r.name, Workers: r.workers}
	}
	p.mu.Unlock()
	for i, r := range remotes {
		h := &out[i]
		r.mu.Lock()
		h.LastError = r.lastErr
		r.mu.Unlock()
		h.InFlight = r.inflight.Load()
		h.Completed = r.completed.Load()
		h.Failures = r.failures.Load()
		h.Healthy = r.consecutive.Load() == 0
	}
	return out
}

// Health is State with Healthy answered by each evaluator's own /healthz,
// probed in parallel and bounded to 2s each.
func (p *Pool) Health(ctx context.Context) []RemoteHealth {
	if ctx == nil {
		ctx = context.Background()
	}
	out := p.State()
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].Healthy = p.probe(ctx, out[i].URL)
		}()
	}
	wg.Wait()
	return out
}

func (p *Pool) probe(ctx context.Context, url string) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// pick routes a lease to the evaluator with the fewest consecutive
// failures, breaking ties by in-flight load and then registration order —
// so a flapping evaluator drains to zero traffic until it completes a
// lease again, without any global circuit-breaker state.
func (p *Pool) pick() *remote {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *remote
	var bestFail, bestLoad int64
	for _, r := range p.remotes {
		f, l := r.consecutive.Load(), r.inflight.Load()
		if best == nil || f < bestFail || (f == bestFail && l < bestLoad) {
			best, bestFail, bestLoad = r, f, l
		}
	}
	return best
}

// Backend binds the pool to one sysmodel, yielding the engine-facing
// evaluation surface. The sysmodel must name the same target the session
// tunes — assignments carry it verbatim, and the evaluator rebuilds the
// target from it.
func (p *Pool) Backend(m SysModel) engine.RemoteBackend {
	return &backend{pool: p, model: m}
}

type backend struct {
	pool  *Pool
	model SysModel
}

func (b *backend) Slots() int { return b.pool.Slots() }

// Evaluate leases one trial to the fleet, requeueing on lease loss with
// doubling backoff until MaxRetries is exhausted. Deterministic
// evaluator-side failures (PermanentError) and context cancellation are
// surfaced immediately; transport loss exhausting its retries becomes an
// *engine.EvaluationLostError (errors.Is engine.ErrEvaluationLost).
func (b *backend) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	if f <= 0 || f >= 1 {
		f = 0 // canonical full-fidelity marker on the wire
	}
	a := TrialAssignment{
		RunIndex: idx,
		Fidelity: f,
		Config:   cfg.Vector(),
		SysModel: b.model,
	}
	var last error
	backoff := b.pool.opts.RetryBackoff
	for attempt := 0; attempt <= b.pool.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			b.pool.retries.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return tune.Result{}, ctx.Err()
			}
			backoff *= 2
		}
		r := b.pool.pick()
		if r == nil {
			return tune.Result{}, errors.New("dist: pool has no evaluators")
		}
		a.ID = fmt.Sprintf("%s/run-%d/try-%d", b.pool.opts.Name, idx, attempt)
		res, err := b.pool.tryEval(ctx, r, a)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return tune.Result{}, ctx.Err()
		}
		var perm *PermanentError
		if errors.As(err, &perm) {
			return tune.Result{}, err
		}
		last = err
	}
	return tune.Result{}, &engine.EvaluationLostError{
		RunIndex: idx,
		Attempts: b.pool.opts.MaxRetries + 1,
		Last:     last,
	}
}

// tryEval opens one lease: POST the assignment, then follow the ndjson
// stream with a heartbeat watchdog. The open connection is the lease —
// cancelling ctx (rung decided, session stopped) aborts the request, which
// cancels the evaluation server-side; the watchdog firing means the
// evaluator froze or vanished, and the returned error sends the trial back
// to Evaluate's requeue loop.
func (p *Pool) tryEval(ctx context.Context, r *remote, a TrialAssignment) (tune.Result, error) {
	body, err := json.Marshal(a)
	if err != nil {
		return tune.Result{}, &PermanentError{URL: r.url, Msg: "encoding assignment: " + err.Error()}
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(lctx, http.MethodPost, r.url+"/evaluate", bytes.NewReader(body))
	if err != nil {
		return tune.Result{}, &PermanentError{URL: r.url, Msg: "building request: " + err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")

	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	resp, err := p.client.Do(req)
	if err != nil {
		err = fmt.Errorf("dist: evaluator %s: %w", r.url, err)
		r.fail(err)
		return tune.Result{}, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		if resp.StatusCode == http.StatusBadRequest {
			perm := &PermanentError{URL: r.url, Msg: fmt.Sprintf("rejected assignment: %s", bytes.TrimSpace(msg))}
			r.fail(perm)
			return tune.Result{}, perm
		}
		err = fmt.Errorf("dist: evaluator %s: status %d: %s", r.url, resp.StatusCode, bytes.TrimSpace(msg))
		r.fail(err)
		return tune.Result{}, err
	}

	// The watchdog cancels the lease context when frames stop arriving;
	// every frame — heartbeat or completion — rearms it.
	watchdog := time.AfterFunc(p.opts.HeartbeatTimeout, cancel)
	defer watchdog.Stop()
	dec := json.NewDecoder(resp.Body)
	for {
		var fr frame
		if err := dec.Decode(&fr); err != nil {
			if ctx.Err() != nil {
				return tune.Result{}, ctx.Err()
			}
			if lctx.Err() != nil {
				err = fmt.Errorf("dist: evaluator %s: lease heartbeat timed out after %v", r.url, p.opts.HeartbeatTimeout)
			} else {
				err = fmt.Errorf("dist: evaluator %s: lease closed without completion: %w", r.url, err)
			}
			r.fail(err)
			return tune.Result{}, err
		}
		watchdog.Reset(p.opts.HeartbeatTimeout)
		if fr.Completion == nil {
			continue
		}
		c := *fr.Completion
		err = c.Validate()
		if err == nil && (c.ID != a.ID || c.RunIndex != a.RunIndex) {
			err = fmt.Errorf("it answers lease %q run %d, not lease %q run %d", c.ID, c.RunIndex, a.ID, a.RunIndex)
		}
		if err != nil {
			err = fmt.Errorf("dist: evaluator %s: invalid completion: %w", r.url, err)
			r.fail(err)
			return tune.Result{}, err
		}
		if c.Err != "" {
			perm := &PermanentError{URL: r.url, Msg: c.Err}
			r.fail(perm)
			return tune.Result{}, perm
		}
		r.ok()
		return c.Result, nil
	}
}
