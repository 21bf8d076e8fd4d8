package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/dist"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

// inproc is the traced pass's service: the pieces daemon.New assembles —
// an engine, an evaluator pool, a repository store — held by the benchmark
// itself so that jobs can be built exactly as daemon.startSession builds
// them and then wrapped in timing decorators.
type inproc struct {
	eng   *repro.Engine
	pool  *dist.Pool
	st    *store.FileStore // nil without a repository
	fleet []*httptest.Server
	// openMS is how long store.Open took on the corpus.
	openMS float64

	remoteCalls atomic.Int64
	mu          sync.Mutex
	overheadUS  []float64 // dist.evaluate minus the same trial run locally
	appendErr   error
}

// inprocWorkers is the traced engine's session slots: the same two a
// default-GOMAXPROCS daemon has on the 2-CPU container.
const inprocWorkers = 2

func newInproc(w *workload, repoDir string) (*inproc, error) {
	e := &inproc{eng: repro.NewEngine(repro.EngineOptions{Workers: inprocWorkers})}
	var urls []string
	for i := 0; i < w.evaluators; i++ {
		ev := dist.NewEvaluator(dist.EvaluatorOptions{Name: fmt.Sprintf("bench-evaluator-%d", i), Workers: 1})
		srv := httptest.NewServer(ev.Handler())
		e.fleet = append(e.fleet, srv)
		urls = append(urls, srv.URL)
	}
	e.pool = dist.NewPool(urls, dist.PoolOptions{Name: "benchmark"})
	if repoDir != "" {
		t0 := time.Now()
		st, err := store.Open(repoDir)
		if err != nil {
			e.close()
			return nil, err
		}
		e.openMS = ms(time.Since(t0))
		e.st = st
	}
	return e, nil
}

// close shuts the evaluators down and releases the repository (and its
// directory lock). Calling it again is a no-op.
func (e *inproc) close() {
	for _, srv := range e.fleet {
		srv.Close()
	}
	e.fleet = nil
	if e.st != nil {
		e.st.Close() // read-mostly handle; every Append already fsynced
		e.st = nil
	}
}

func (e *inproc) noteOverhead(d time.Duration) {
	e.mu.Lock()
	e.overheadUS = append(e.overheadUS, us(d))
	e.mu.Unlock()
}

// timed runs fn and, on a decorated session, records it as a span.
func timed(st *sessionTrace, name string, fn func()) {
	start := time.Now()
	fn()
	if st != nil {
		st.add(name, start)
	}
}

// buildJob materializes spec the way daemon.startSession does: JobWithWarm
// against the store's feature index, the fleet backend bound to the spec's
// sysmodel, and — with a repository — a durable checkpoint at admission and
// at every batch boundary plus archival on completion. With st non-nil every
// piece is wrapped in its timing decorator. (The daemon also materializes
// the corpus for repository-driven tuners; no workload pairs one with a
// repository, so that branch has nothing to mirror here.)
func (e *inproc) buildJob(spec repro.Spec, sid string, st *sessionTrace) (repro.Job, error) {
	var warm tune.WarmSource
	var archive func(repro.SessionRecord)
	if e.st != nil {
		warm = e.st
		if st != nil {
			warm = &tracedWarm{inner: e.st, st: st}
		}
		archive = func(rec repro.SessionRecord) {
			timed(st, "store.append", func() {
				if _, err := e.st.Append(rec); err != nil {
					e.mu.Lock()
					e.appendErr = err
					e.mu.Unlock()
				}
			})
		}
	}
	job, err := spec.JobWithWarm(nil, warm, archive)
	if err != nil {
		return job, err
	}
	job.Remote = e.pool.Backend(dist.SysModel{System: spec.System, Workload: spec.Workload, Seed: spec.Seed, Target: spec.Target})
	if st != nil {
		if err := decorate(&job, st, e); err != nil {
			return job, err
		}
	}
	if e.st == nil {
		return job, nil
	}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		return job, err
	}
	save := func(cp store.SessionCheckpoint) (err error) {
		cp.SID, cp.Spec, cp.UpdatedAt = sid, rawSpec, time.Now()
		timed(st, "store.checkpoint", func() { err = e.st.SaveCheckpoint(cp) })
		return err
	}
	job.Checkpoint = func(cs tune.CheckpointState) {
		_ = save(store.SessionCheckpoint{Replay: cs.Replay(), Trials: len(cs.Trials)}) // as the daemon: the next boundary retries
	}
	if err := save(store.SessionCheckpoint{}); err != nil {
		return job, fmt.Errorf("checkpointing session at admission: %w", err)
	}
	return job, nil
}

// inprocOutcome is one in-process session.
type inprocOutcome struct {
	index       int
	err         error
	wallMS      float64 // Submit → done
	schedWaitMS float64 // Submit → first event
	trials      int
	events      int
	ringBytes   int     // Run.MemoryBytes at completion
	replayUS    float64 // EventsSince(0) drain of the finished run, per event
	newTargetUS float64 // repro.NewTarget for this spec, timed on its own
	digest      [sha256.Size]byte
	xs          [][]float64 // observed configurations (unit cube), decorated pass only
	ys          []float64   // their objectives
}

// runSession drives session i of the workload's list in-process.
func (e *inproc) runSession(ctx context.Context, tr *tracer, w *workload, seed int64, i int) inprocOutcome {
	return e.runSpec(ctx, tr, w.spec(seed, i), i)
}

// runSpec drives one session in-process under session id i. With tr non-nil
// the job is decorated and its spans recorded under a "session" root: the
// root covers job construction (with the warm-start lookup) and an
// "engine.run" child from Submit to completion, under which every
// decorator's span hangs.
func (e *inproc) runSpec(ctx context.Context, tr *tracer, spec repro.Spec, i int) inprocOutcome {
	out := inprocOutcome{index: i}
	sid := fmt.Sprintf("b%d", i)
	var st *sessionTrace
	root := -1
	if tr != nil {
		t0 := time.Now()
		if _, err := repro.NewTarget(spec.System, spec.Workload, spec.Seed, spec.Target); err != nil {
			out.err = err
			return out
		}
		out.newTargetUS = us(time.Since(t0))
		root = tr.open("session", -1, i)
		st = &sessionTrace{tr: tr, session: i, parent: root}
	}
	job, err := e.buildJob(spec, sid, st)
	if err != nil {
		out.err = err
		return out
	}
	if st != nil {
		st.parent = tr.open("engine.run", root, i)
	}
	submitted := time.Now()
	run := e.eng.SubmitContext(ctx, job)
	// Inside the span the subscriber only collects: encoding and hashing
	// the events is the benchmark's work, not the engine's.
	var events []repro.Event
	for ev := range run.Events() {
		if len(events) == 0 {
			out.schedWaitMS = ms(time.Since(submitted))
		}
		events = append(events, ev)
	}
	out.wallMS = ms(time.Since(submitted))
	if st != nil {
		tr.close(st.parent)
	}
	out.events = len(events)
	d := newStreamDigest()
	for _, ev := range events {
		switch ev.Kind {
		case repro.TrialDone:
			out.trials++
			if tr != nil {
				out.xs = append(out.xs, ev.Config.Vector())
				out.ys = append(out.ys, ev.Result.Objective())
			}
		case repro.TrialPruned:
			out.trials++
		}
		data, err := json.Marshal(ev)
		if err != nil {
			out.err = err
			break
		}
		d.add(string(ev.Kind), data)
	}
	out.digest = d.sum()
	out.ringBytes = run.MemoryBytes()
	if _, err := run.Result(); err != nil && out.err == nil {
		out.err = err
	}
	if e.st != nil {
		// The daemon reaps a finished session's checkpoint.
		if err := e.st.DeleteCheckpoint(sid); err != nil && out.err == nil {
			out.err = err
		}
	}
	if tr == nil {
		return out
	}
	tr.close(root)
	if err := st.overheadSamples(ctx, spec, e); err != nil && out.err == nil {
		out.err = err
	}
	if out.events > 0 {
		t0 := time.Now()
		n := 0
		for range run.EventsSince(ctx, 0) {
			n++
		}
		out.replayUS = us(time.Since(t0)) / float64(n)
	}
	return out
}

// driveInproc is drive's in-process twin: the same closed loop over the same
// list, against the inproc service instead of a child daemon. Every session
// runs twice back to back on its client, once decorated (spans into tr) and
// once plain, in alternating order — so each pair shares the host's state
// of the moment, and the tracing overhead is a within-pair difference, not
// the difference of two passes a host swing apart.
func (e *inproc) driveInproc(ctx context.Context, tr *tracer, w *workload, seed int64, limit int, seconds float64) (dec, plain []inprocOutcome, wall float64) {
	type pair struct{ dec, plain inprocOutcome }
	per := make([][]pair, nclients)
	start := time.Now()
	closedLoop(ctx, 0, limit, seconds, nclients, func(k, i int) {
		var p pair
		if i%2 == 0 {
			p.dec = e.runSession(ctx, tr, w, seed, i)
			p.plain = e.runSession(ctx, nil, w, seed, i)
		} else {
			p.plain = e.runSession(ctx, nil, w, seed, i)
			p.dec = e.runSession(ctx, tr, w, seed, i)
		}
		per[k] = append(per[k], p)
	})
	wall = time.Since(start).Seconds()
	n := 0
	for k := range per {
		n += len(per[k])
	}
	dec, plain = make([]inprocOutcome, n), make([]inprocOutcome, n)
	for k := range per {
		for _, p := range per[k] {
			dec[p.dec.index], plain[p.dec.index] = p.dec, p.plain
		}
	}
	return dec, plain, wall
}
