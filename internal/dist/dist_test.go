package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/engine"
	"repro/internal/mathx/linalg"
	"repro/internal/tune"
)

// newFleet starts n in-process evaluator servers and returns a pool over
// them plus the evaluators (for fault hooks and counters).
func newFleet(t *testing.T, n int, opts func(i int) EvaluatorOptions) (*Pool, []*Evaluator) {
	t.Helper()
	var urls []string
	evs := make([]*Evaluator, n)
	for i := 0; i < n; i++ {
		o := EvaluatorOptions{Workers: 2, HeartbeatEvery: 20 * time.Millisecond}
		if opts != nil {
			o = opts(i)
		}
		evs[i] = NewEvaluator(o)
		srv := httptest.NewServer(evs[i].Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	pool := NewPool(urls, PoolOptions{
		HeartbeatTimeout: 500 * time.Millisecond,
		RetryBackoff:     5 * time.Millisecond,
	})
	return pool, evs
}

var dbmsModel = SysModel{System: "dbms", Workload: "tpch", Seed: 7}

// tuneWith runs one ituned session on dbms/tpch, optionally with a remote
// backend mixed into the fan-out. tunerName "ituned-hyperband" wraps the
// tuner in a Hyperband fidelity schedule.
func tuneWith(t *testing.T, remote engine.RemoteBackend, tunerName string, trials int) *tune.TuningResult {
	t.Helper()
	target, err := repro.NewTarget(dbmsModel.System, dbmsModel.Workload, dbmsModel.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fidelity := tunerName == "ituned-hyperband"
	if fidelity {
		tunerName = "ituned"
	}
	tn, err := repro.NewTuner(tunerName, repro.TunerOptions{Seed: dbmsModel.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if fidelity {
		mf, err := tune.NewMultiFidelity(tn.(tune.BatchTuner), tune.StrategyHyperband, dbmsModel.Seed)
		if err != nil {
			t.Fatal(err)
		}
		tn = mf
	}
	res, err := engine.New(engine.Options{}).Submit(engine.Job{
		Name: tunerName, Tuner: tn, Target: target, Budget: tune.Budget{Trials: trials}, Parallel: 2, Remote: remote,
	}).Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, a, b *tune.TuningResult, label string) {
	t.Helper()
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial counts differ: %d vs %d", label, len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		if a.Trials[i].Config.String() != b.Trials[i].Config.String() {
			t.Fatalf("%s: trial %d configs differ", label, i+1)
		}
		if a.Trials[i].Result.Time != b.Trials[i].Result.Time {
			t.Fatalf("%s: trial %d times differ: %v vs %v",
				label, i+1, a.Trials[i].Result.Time, b.Trials[i].Result.Time)
		}
	}
	if a.Best.String() != b.Best.String() {
		t.Fatalf("%s: best configs differ", label)
	}
}

// TestFleetMatchesLocal is the subsystem's core guarantee end to end over
// real HTTP: a two-evaluator fleet produces the identical trial sequence a
// local-only run produces, because every evaluator rebuilds the same
// deterministic target and run indices are reserved coordinator-side.
func TestFleetMatchesLocal(t *testing.T) {
	local := tuneWith(t, nil, "ituned", 20)
	pool, evs := newFleet(t, 2, nil)
	remote := tuneWith(t, pool.Backend(dbmsModel), "ituned", 20)
	sameResult(t, local, remote, "local vs fleet")
	if evs[0].Info().Evaluations+evs[1].Info().Evaluations == 0 {
		t.Fatal("fleet was never used")
	}
}

// TestFleetFidelityMatchesLocal extends the guarantee to multi-fidelity
// rung batches (partial-fidelity assignments over the wire, straggler
// cancellation through aborted leases).
func TestFleetFidelityMatchesLocal(t *testing.T) {
	local := tuneWith(t, nil, "ituned-hyperband", 40)
	pool, _ := newFleet(t, 2, nil)
	sameResult(t, local, tuneWith(t, pool.Backend(dbmsModel), "ituned-hyperband", 40), "local vs fleet fidelity")
}

// TestLeaseRequeueOnDrop: an evaluator that crashes mid-evaluation (its
// lease connection closes without a completion) costs retries, not
// correctness — the trial requeues to the healthy evaluator and the final
// result is unchanged.
func TestLeaseRequeueOnDrop(t *testing.T) {
	local := tuneWith(t, nil, "ituned", 15)
	var drops atomic.Int64
	pool, _ := newFleet(t, 2, func(i int) EvaluatorOptions {
		o := EvaluatorOptions{Workers: 2, HeartbeatEvery: 20 * time.Millisecond}
		if i == 0 {
			o.Fault = func(a TrialAssignment) Fault {
				if a.RunIndex%3 == 0 {
					drops.Add(1)
					return Fault{Drop: true}
				}
				return Fault{}
			}
		}
		return o
	})
	sameResult(t, local, tuneWith(t, pool.Backend(dbmsModel), "ituned", 15), "local vs dropping fleet")
	if drops.Load() > 0 && pool.Retries() == 0 {
		t.Fatal("drops were injected but the pool recorded no requeues")
	}
}

// TestLeaseRequeueOnFrozenEvaluator: a frozen evaluator process (hangs and
// stops heartbeating) is detected by the lease watchdog; the trial
// requeues and the result is unchanged.
func TestLeaseRequeueOnFrozenEvaluator(t *testing.T) {
	local := tuneWith(t, nil, "ituned", 12)
	var freezes atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		o := EvaluatorOptions{Workers: 2, HeartbeatEvery: 10 * time.Millisecond}
		if i == 0 {
			o.Fault = func(a TrialAssignment) Fault {
				if a.RunIndex%4 == 1 {
					freezes.Add(1)
					return Fault{Hang: true, Mute: true}
				}
				return Fault{}
			}
		}
		srv := httptest.NewServer(NewEvaluator(o).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	pool := NewPool(urls, PoolOptions{
		HeartbeatTimeout: 100 * time.Millisecond,
		RetryBackoff:     5 * time.Millisecond,
	})
	sameResult(t, local, tuneWith(t, pool.Backend(dbmsModel), "ituned", 12), "local vs frozen evaluator")
	if freezes.Load() > 0 && pool.Retries() == 0 {
		t.Fatal("freezes were injected but the pool recorded no requeues")
	}
}

// TestDeadEvaluatorIsRoutedAround: a fleet member that is down for the
// whole session (connection refused) never completes a lease; the router
// steers to the healthy evaluator and the session still matches local.
func TestDeadEvaluatorIsRoutedAround(t *testing.T) {
	local := tuneWith(t, nil, "ituned", 12)
	dead := httptest.NewServer(NewEvaluator(EvaluatorOptions{}).Handler())
	deadURL := dead.URL
	dead.Close()
	live := httptest.NewServer(NewEvaluator(EvaluatorOptions{Workers: 2, HeartbeatEvery: 20 * time.Millisecond}).Handler())
	t.Cleanup(live.Close)
	pool := NewPool([]string{deadURL, live.URL}, PoolOptions{
		HeartbeatTimeout: 500 * time.Millisecond,
		RetryBackoff:     5 * time.Millisecond,
	})
	sameResult(t, local, tuneWith(t, pool.Backend(dbmsModel), "ituned", 12), "local vs half-dead fleet")
}

// TestHeartbeatsKeepSlowLeasesAlive: an evaluation slower than the
// heartbeat timeout still completes on its first lease — heartbeats, not
// completion latency, are what keeps a lease alive.
func TestHeartbeatsKeepSlowLeasesAlive(t *testing.T) {
	pool, _ := newFleet(t, 1, func(int) EvaluatorOptions {
		return EvaluatorOptions{
			Workers:        2,
			HeartbeatEvery: 20 * time.Millisecond,
			Fault:          func(TrialAssignment) Fault { return Fault{Delay: 250 * time.Millisecond} },
		}
	})
	pool.opts.HeartbeatTimeout = 100 * time.Millisecond
	back := pool.Backend(dbmsModel)
	target, err := repro.NewTarget("dbms", "tpch", 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Evaluate(context.Background(), 1, 0, target.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("res.Time = %v, want > 0", res.Time)
	}
	if pool.Retries() != 0 {
		t.Fatalf("slow-but-heartbeating lease burned %d retries, want 0", pool.Retries())
	}
	local := target.(tune.ConcurrentTarget).RunIndexed(1, target.Space().Default())
	if res.Time != local.Time {
		t.Fatalf("remote %v != local %v", res.Time, local.Time)
	}
}

// TestPermanentErrorSkipsRetries: an assignment no evaluator could ever
// execute (unknown system) fails immediately as a PermanentError without
// burning the retry budget.
func TestPermanentErrorSkipsRetries(t *testing.T) {
	pool, _ := newFleet(t, 2, nil)
	back := pool.Backend(SysModel{System: "no-such-system", Workload: "x", Seed: 1})
	target, err := repro.NewTarget("dbms", "tpch", 7)
	if err != nil {
		t.Fatal(err)
	}
	_, err = back.Evaluate(context.Background(), 0, 0, target.Space().Default())
	var perm *PermanentError
	if !errors.As(err, &perm) {
		t.Fatalf("err = %v, want a *PermanentError", err)
	}
	if pool.Retries() != 0 {
		t.Fatalf("a deterministic failure burned %d retries, want 0", pool.Retries())
	}
}

// TestExhaustedRetriesBecomeEvaluationLost: a fleet that is entirely gone
// yields an *engine.EvaluationLostError after the bounded retry budget —
// the distinguishable infrastructure-failure error, not a hang.
func TestExhaustedRetriesBecomeEvaluationLost(t *testing.T) {
	dead := httptest.NewServer(NewEvaluator(EvaluatorOptions{}).Handler())
	deadURL := dead.URL
	dead.Close()
	pool := NewPool([]string{deadURL}, PoolOptions{MaxRetries: 2, RetryBackoff: time.Millisecond})
	target, err := repro.NewTarget("dbms", "tpch", 7)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.Backend(dbmsModel).Evaluate(context.Background(), 3, 0, target.Space().Default())
	if !errors.Is(err, engine.ErrEvaluationLost) {
		t.Fatalf("err = %v, want errors.Is engine.ErrEvaluationLost", err)
	}
	var lost *engine.EvaluationLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *engine.EvaluationLostError", err)
	}
	if lost.RunIndex != 3 || lost.Attempts != 3 {
		t.Fatalf("lost = {RunIndex: %d, Attempts: %d}, want {3, 3}", lost.RunIndex, lost.Attempts)
	}
	if got := pool.Retries(); got != 2 {
		t.Fatalf("pool.Retries() = %d, want 2", got)
	}
}

// TestCompletionForAnotherTrialIsRequeued: a completion is this trial's
// result only if it answers the leased assignment. An evaluator that answers
// with another run index costs the lease, as an invalid completion does,
// until the retries run out.
func TestCompletionForAnotherTrialIsRequeued(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/evaluate" {
			http.NotFound(w, req)
			return
		}
		var a TrialAssignment
		if err := json.NewDecoder(req.Body).Decode(&a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(frame{Completion: &TrialCompletion{ID: a.ID, RunIndex: a.RunIndex + 1, Result: tune.Result{Time: 1}}})
	}))
	t.Cleanup(srv.Close)
	pool := NewPool([]string{srv.URL}, PoolOptions{MaxRetries: 2, RetryBackoff: time.Millisecond})
	target, err := repro.NewTarget("dbms", "tpch", 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Backend(dbmsModel).Evaluate(context.Background(), 3, 0, target.Space().Default())
	var lost *engine.EvaluationLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v (result %+v), want *engine.EvaluationLostError", err, res)
	}
	if lost.RunIndex != 3 || lost.Attempts != 3 || pool.Retries() != 2 {
		t.Fatalf("lost = {RunIndex: %d, Attempts: %d}, retries %d; want {3, 3}, 2", lost.RunIndex, lost.Attempts, pool.Retries())
	}
}

// TestCancellationAbortsLease: cancelling the evaluation context (rung
// decided, session stopped) returns promptly with the context's error and
// consumes no retries — cancellation is not lease loss.
func TestCancellationAbortsLease(t *testing.T) {
	pool, _ := newFleet(t, 1, func(int) EvaluatorOptions {
		return EvaluatorOptions{
			Workers:        1,
			HeartbeatEvery: 10 * time.Millisecond,
			Fault:          func(TrialAssignment) Fault { return Fault{Hang: true} },
		}
	})
	target, err := repro.NewTarget("dbms", "tpch", 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = pool.Backend(dbmsModel).Evaluate(ctx, 0, 0, target.Space().Default())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
	if pool.Retries() != 0 {
		t.Fatalf("cancellation burned %d retries, want 0", pool.Retries())
	}
}

// TestRegistrationAndHealth: Add performs the registration handshake
// (picking up each evaluator's advertised worker count), Slots sums them,
// and Health reports live fleet state.
func TestRegistrationAndHealth(t *testing.T) {
	pool, evs := newFleet(t, 2, func(i int) EvaluatorOptions {
		return EvaluatorOptions{Name: "ev", Workers: i + 1}
	})
	if got := pool.Slots(); got != 3 {
		t.Fatalf("Slots() = %d, want 3 (1+2)", got)
	}
	health := pool.Health(context.Background())
	if len(health) != 2 {
		t.Fatalf("Health reported %d evaluators, want 2", len(health))
	}
	for _, h := range health {
		if !h.Healthy {
			t.Fatalf("evaluator %s reported unhealthy: %+v", h.URL, h)
		}
		if h.Name != "ev" {
			t.Fatalf("registration did not pick up the evaluator name: %+v", h)
		}
	}
	for _, ev := range evs {
		if ev.Info().InFlight != 0 {
			t.Fatalf("idle evaluator reports in-flight work: %+v", ev.Info())
		}
	}
	// An evaluator's own probe also names the linalg kernel its process runs.
	resp, err := http.Get(health[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["linalg_kernel"] != linalg.Kernel() {
		t.Fatalf("evaluator /healthz = %v, want status ok and linalg_kernel %q", hz, linalg.Kernel())
	}
}

// TestHealthDuringReregistration: POST /evaluators re-registering a known
// URL reaches Add, which rewrites the evaluator's name and worker count while
// a /healthz request may be reporting them — Health must read both under the
// pool's lock (go test -race).
func TestHealthDuringReregistration(t *testing.T) {
	pool, _ := newFleet(t, 1, func(int) EvaluatorOptions {
		return EvaluatorOptions{Name: "ev", Workers: 2}
	})
	url := pool.Health(context.Background())[0].URL
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			pool.Add(url)
		}
	}()
	for i := 0; i < 20; i++ {
		for _, h := range pool.Health(context.Background()) {
			if h.Name != "ev" || h.Workers != 2 {
				t.Errorf("health during re-registration = %+v, want name ev and 2 workers", h)
			}
		}
	}
	<-done
}
