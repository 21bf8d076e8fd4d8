package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// perLayer lists the traced pass's metrics, layer by layer (the layers are
// the repo's modules), in print order. Every workload prints every name;
// a layer the workload leaves idle reads 0. BENCHMARK.json carries the same
// list. The README says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "linalg.cholesky_us_n160", Unit: "us", Better: "lower"},
	{Name: "linalg.cholesky_us_n512", Unit: "us", Better: "lower"},
	{Name: "linalg.solve_us_n512", Unit: "us", Better: "lower"},
	{Name: "linalg.parallel_cholesky_us_n512_w1", Unit: "us", Better: "lower"},
	{Name: "linalg.parallel_cholesky_us_n512_w2", Unit: "us", Better: "lower"},

	{Name: "gp.fit_ms_exact_n160", Unit: "ms", Better: "lower"},
	{Name: "gp.fit_ms_sparse_n300", Unit: "ms", Better: "lower"},
	{Name: "gp.fit_ms_rff_n300", Unit: "ms", Better: "lower"},
	{Name: "gp.append_us_exact_n160", Unit: "us", Better: "lower"},
	{Name: "gp.score_us_exact_n160", Unit: "us", Better: "lower"},
	{Name: "gp.score_us_sparse_n300", Unit: "us", Better: "lower"},

	{Name: "tune.new_proposer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "tune.propose_calls", Unit: "count", Better: "lower"},
	{Name: "tune.propose_busy_s", Unit: "s", Better: "lower"},
	{Name: "tune.propose_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "tune.propose_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "tune.proposals_per_call", Unit: "ratio", Better: "higher"},
	{Name: "tune.observe_calls", Unit: "count", Better: "lower"},
	{Name: "tune.observe_busy_s", Unit: "s", Better: "lower"},
	{Name: "tune.observe_us_p50", Unit: "us", Better: "lower"},
	{Name: "tune.share_of_session", Unit: "ratio", Better: "lower"},
	{Name: "tune.wrap_guardrail_propose_us_p50", Unit: "us", Better: "lower"},
	{Name: "tune.wrap_pareto_propose_us_p50", Unit: "us", Better: "lower"},
	{Name: "tune.wrap_drift_propose_us_p50", Unit: "us", Better: "lower"},
	{Name: "tune.wrap_hyperband_propose_us_p50", Unit: "us", Better: "lower"},
	{Name: "tune.wrap_warmstart_propose_us_p50", Unit: "us", Better: "lower"},

	{Name: "sysmodel.new_target_us_p50", Unit: "us", Better: "lower"},
	{Name: "sysmodel.run_calls", Unit: "count", Better: "lower"},
	{Name: "sysmodel.run_busy_s", Unit: "s", Better: "lower"},
	{Name: "sysmodel.run_us_p50", Unit: "us", Better: "lower"},
	{Name: "sysmodel.run_us_p99", Unit: "us", Better: "lower"},

	{Name: "engine.sessions", Unit: "count", Better: "higher"},
	{Name: "engine.session_wall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.sched_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.self_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.self_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "engine.events", Unit: "count", Better: "lower"},
	{Name: "engine.events_replay_us_per_event", Unit: "us", Better: "lower"},
	{Name: "engine.ring_bytes_peak", Unit: "B", Better: "lower"},
	{Name: "engine.zero_target_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "engine.zero_target_us_per_trial_w2", Unit: "us", Better: "lower"},

	{Name: "dist.evaluate_calls", Unit: "count", Better: "lower"},
	{Name: "dist.evaluate_busy_s", Unit: "s", Better: "lower"},
	{Name: "dist.evaluate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.evaluate_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "dist.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "dist.remote_share", Unit: "ratio", Better: "higher"},
	{Name: "dist.retries", Unit: "count", Better: "lower"},

	{Name: "daemon.create_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "daemon.create_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "daemon.delete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "daemon.healthz_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "daemon.nearest_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "daemon.nearest_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "daemon.sse_events", Unit: "count", Better: "lower"},
	{Name: "daemon.sse_bytes", Unit: "B", Better: "lower"},
	{Name: "daemon.sse_replay_us_per_event", Unit: "us", Better: "lower"},
	{Name: "daemon.rejected_429", Unit: "count", Better: "lower"},

	{Name: "store.bulk_append_krec_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "store.append_calls", Unit: "count", Better: "lower"},
	{Name: "store.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.append_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_saves", Unit: "count", Better: "lower"},
	{Name: "store.checkpoint_busy_s", Unit: "s", Better: "lower"},
	{Name: "store.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "store.warm_configs_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.nearest_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.nearest_us_p99", Unit: "us", Better: "lower"},
	{Name: "store.folds", Unit: "count", Better: "lower"},
	{Name: "store.disk_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	// Client-felt latencies that do not repeat within a bound on every
	// workload: reported here, raw, from the traced HTTP pass, ungated.
	{Name: "session_wall_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "first_event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "first_event_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "trial_gap_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trial_gap_ms_p99", Unit: "ms", Better: "lower"},
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	n      int
	busyS  float64
	sorted []float64 // durations, nanoseconds, ascending
}

func statsOf(spans []span, name string) spanStats {
	var st spanStats
	for _, s := range spans {
		if s.Name == name {
			d := float64(s.End - s.Start)
			st.sorted = append(st.sorted, d)
			st.busyS += d / 1e9
		}
	}
	st.n = len(st.sorted)
	sort.Float64s(st.sorted)
	return st
}

// quantile returns the q-quantile of the durations in the given unit.
func (st spanStats) quantile(q float64, unit time.Duration) float64 {
	return quantile(st.sorted, q) / float64(unit)
}

// tracedPass is the per-layer attribution run. Three parts:
//
//  1. the workload's list replayed in-process — the pieces daemon.New wires
//     together, built here so they can be wrapped in timing decorators —
//     each session once decorated (spans) and once plain (the difference is
//     the tracing overhead);
//  2. probes calling single layers on the inputs part 1 produced;
//  3. a shorter HTTP pass against a real child daemon with a span around
//     each HTTP call, for the daemon layer, whose leading sessions must
//     digest exactly like their decorated in-process twins.
//
// Part 1 gets the whole window (half of it decorated), part 3 a quarter.
func (h *harness) tracedPass(ctx context.Context, w *workload, seed int64, sz sizing, repoDir string, rep report) (report, error) {
	env, err := newInproc(w, repoDir)
	if err != nil {
		return rep, err
	}
	defer env.close()
	segsBefore := 0
	if env.st != nil {
		rep.set("store.open_ms", "ms", env.openMS, 1)
		if err := storeProbes(&rep, env, seed); err != nil {
			return rep, err
		}
		segsBefore = countSegments(repoDir)
	}
	// Warm up: one plain session per shape, as the end-to-end pass does.
	for i := 0; i < w.shapes; i++ {
		if out := env.runSession(ctx, nil, w, setupSeed, warmBase+i); out.err != nil {
			return rep, fmt.Errorf("in-process warm-up session %d: %w", i, out.err)
		}
	}
	tr := newTracer()
	dec, plain, wall := env.driveInproc(ctx, tr, w, seed, sz.tracedLimit, sz.seconds)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	rep.Seconds = wall
	rep.Attempted = len(dec)
	for _, o := range dec {
		rep.Trials += int64(o.trials)
		rep.Events += int64(o.events)
		if o.err != nil {
			rep.Failed++
			rep.fail("in-process session %d: %v", o.index, o.err)
		}
	}
	for _, o := range plain {
		if o.err != nil {
			rep.fail("undecorated in-process session %d: %v", o.index, o.err)
		} else if o.digest != dec[o.index].digest {
			rep.fail("session %d: the decorated job's stream differs from the undecorated one's", o.index)
		}
	}
	if env.appendErr != nil {
		rep.fail("archiving a session: %v", env.appendErr)
	}
	layerMetrics(&rep, tr.spans, dec, plain, env)
	if env.st != nil {
		rep.set("store.folds", "count", float64(countSegments(repoDir)-segsBefore), 0)
		mb, err := dirMB(repoDir)
		if err != nil {
			return rep, err
		}
		rep.set("store.disk_mb", "MB", mb, 0)
	}
	rep.set("dist.retries", "count", float64(env.pool.Retries()), 0)

	if err := engineProbes(ctx, &rep, w, seed); err != nil {
		return rep, err
	}
	if xs, ys, pool, ok := modelInputs(dec); ok {
		if err := linalgProbes(&rep, pool); err != nil {
			return rep, err
		}
		if err := gpProbes(&rep, xs, ys, seed); err != nil {
			return rep, err
		}
		if err := h.wrapperProbes(ctx, &rep, seed); err != nil {
			return rep, err
		}
	}
	env.close() // releases the repository's directory lock for the daemon

	httpSpans, err := h.tracedHTTP(ctx, w, seed, sz, repoDir, dec, &rep)
	if err != nil {
		return rep, err
	}
	for _, m := range perLayer {
		if _, ok := rep.Metrics[m.Name]; !ok {
			rep.set(m.Name, m.Unit, 0, 0)
		}
	}
	rep.order = rep.order[:0]
	for _, m := range perLayer {
		rep.order = append(rep.order, m.Name)
	}
	path := filepath.Join(h.outDir, "trace-"+w.name+".json")
	if err := writeSpans(path, tr.spans, httpSpans); err != nil {
		return rep, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d in-process and %d HTTP spans written to %s", len(tr.spans), len(httpSpans), path))
	return rep, nil
}

// layerMetrics turns the decorated pass's spans into the tune, sysmodel,
// engine, dist and store metrics.
func layerMetrics(rep *report, spans []span, dec, plain []inprocOutcome, env *inproc) {
	propose := statsOf(spans, "tune.propose")
	observe := statsOf(spans, "tune.observe")
	newProposer := statsOf(spans, "tune.new_proposer")
	runs := statsOf(spans, "sysmodel.run")
	evals := statsOf(spans, "dist.evaluate")
	engineRun := statsOf(spans, "engine.run")

	rep.set("tune.new_proposer_ms_p50", "ms", newProposer.quantile(0.5, time.Millisecond), newProposer.n)
	rep.set("tune.propose_calls", "count", float64(propose.n), 0)
	rep.set("tune.propose_busy_s", "s", propose.busyS, propose.n)
	rep.spanPercentiles("tune.propose_ms", "ms", propose, time.Millisecond)
	rep.set("tune.observe_calls", "count", float64(observe.n), 0)
	rep.set("tune.observe_busy_s", "s", observe.busyS, observe.n)
	rep.set("tune.observe_us_p50", "us", observe.quantile(0.5, time.Microsecond), observe.n)
	if propose.n > 0 {
		// Every proposal is observed exactly once.
		rep.set("tune.proposals_per_call", "ratio", float64(observe.n)/float64(propose.n), propose.n)
	}
	if engineRun.busyS > 0 {
		rep.set("tune.share_of_session", "ratio", (propose.busyS+observe.busyS+newProposer.busyS)/engineRun.busyS, engineRun.n)
	}

	rep.set("sysmodel.run_calls", "count", float64(runs.n), 0)
	rep.set("sysmodel.run_busy_s", "s", runs.busyS, runs.n)
	rep.spanPercentiles("sysmodel.run_us", "us", runs, time.Microsecond)

	rep.set("dist.evaluate_calls", "count", float64(evals.n), 0)
	rep.set("dist.evaluate_busy_s", "s", evals.busyS, evals.n)
	rep.spanPercentiles("dist.evaluate_ms", "ms", evals, time.Millisecond)
	rep.set("dist.overhead_us_p50", "us", median(env.overheadUS), len(env.overheadUS))
	if total := runs.n + evals.n; total > 0 {
		rep.set("dist.remote_share", "ratio", float64(evals.n)/float64(total), total)
	}

	// An engine.run span minus the union of the decorated calls under it is
	// the engine's own time: dispatch, session bookkeeping, ring append.
	var selfS float64
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "engine.run" {
			selfS += float64(self[i]) / 1e9
		}
	}
	var wall, wait, replay, newTarget, overhead []float64
	var trials, events, ringPeak int
	for _, o := range dec {
		if o.err != nil {
			continue
		}
		wall = append(wall, o.wallMS)
		wait = append(wait, o.schedWaitMS)
		replay = append(replay, o.replayUS)
		newTarget = append(newTarget, o.newTargetUS)
		trials += o.trials
		events += o.events
		if o.ringBytes > ringPeak {
			ringPeak = o.ringBytes
		}
	}
	for i, o := range plain {
		if o.err == nil && dec[i].err == nil && o.wallMS > 0 {
			overhead = append(overhead, (dec[i].wallMS-o.wallMS)/o.wallMS*100)
		}
	}
	rep.set("engine.sessions", "count", float64(len(wall)), 0)
	rep.set("engine.session_wall_ms_p50", "ms", median(wall), len(wall))
	rep.set("engine.sched_wait_ms_p50", "ms", median(wait), len(wait))
	rep.set("engine.self_busy_s", "s", selfS, engineRun.n)
	if trials > 0 {
		rep.set("engine.self_us_per_trial", "us", selfS*1e6/float64(trials), trials)
	}
	rep.set("engine.events", "count", float64(events), 0)
	rep.set("engine.events_replay_us_per_event", "us", median(replay), len(replay))
	rep.set("engine.ring_bytes_peak", "B", float64(ringPeak), 0)
	rep.set("sysmodel.new_target_us_p50", "us", median(newTarget), len(newTarget))
	rep.set("trace.overhead_pct", "%", median(overhead), len(overhead))

	appends := statsOf(spans, "store.append")
	ckpts := statsOf(spans, "store.checkpoint")
	warm := statsOf(spans, "store.warm_configs")
	rep.set("store.append_calls", "count", float64(appends.n), 0)
	rep.spanPercentiles("store.append_ms", "ms", appends, time.Millisecond)
	rep.set("store.checkpoint_saves", "count", float64(ckpts.n), 0)
	rep.set("store.checkpoint_busy_s", "s", ckpts.busyS, ckpts.n)
	rep.spanPercentiles("store.checkpoint_ms", "ms", ckpts, time.Millisecond)
	rep.set("store.warm_configs_us_p50", "us", warm.quantile(0.5, time.Microsecond), warm.n)
}

// spanPercentiles records the median and p99 of the spans' durations, in
// the given unit, as base_p50 and base_p99.
func (r *report) spanPercentiles(base, unitName string, st spanStats, unit time.Duration) {
	d := make([]float64, len(st.sorted))
	for i, v := range st.sorted {
		d[i] = v / float64(unit)
	}
	r.setPercentile(base+"_p50", unitName, d, 0.50)
	r.setPercentile(base+"_p99", unitName, d, 0.99)
}

// tracedHTTP is part 3: a child daemon driven over HTTP with a span around
// every call, for the daemon layer's metrics.
func (h *harness) tracedHTTP(ctx context.Context, w *workload, seed int64, sz sizing, repoDir string, dec []inprocOutcome, rep *report) ([]span, error) {
	svc, _, err := h.setUp(ctx, w, repoDir)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	tr := newTracer()
	load, err := drive(ctx, svc, w, seed, 0, sz.tracedLimit, sz.seconds/4, nclients, tr)
	if err != nil {
		return nil, err
	}
	var create, del, nearest, replay, first, wall []float64
	var events, bytes, rejected int
	for i, o := range load.outcomes {
		rep.Attempted++
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
		if o.err != nil {
			rep.Failed++
			rep.fail("HTTP session %d: %v", o.index, o.err)
			continue
		}
		create = append(create, o.createMS)
		del = append(del, o.deleteMS)
		replay = append(replay, o.replayUS)
		first = append(first, o.firstMS)
		wall = append(wall, o.wallMS)
		if w.repo {
			nearest = append(nearest, o.nearestMS)
		}
		events += o.events
		bytes += o.bytes
		if i < w.verify && i < len(dec) && dec[i].err == nil && dec[i].digest != o.digest {
			rep.Failed++
			rep.fail("session %d: the daemon's stream differs from the decorated in-process run's", i)
		}
	}
	create, nearest = sortedCopy(create), sortedCopy(nearest)
	rep.setPercentile("session_wall_ms_p90", "ms", sortedCopy(wall), 0.90)
	first = sortedCopy(first)
	rep.setPercentile("first_event_ms_p50", "ms", first, 0.50)
	rep.setPercentile("first_event_ms_p90", "ms", first, 0.90)
	rep.setPercentile("trial_gap_ms_p50", "ms", sortedCopy(load.gapsMS), 0.50)
	rep.setPercentile("trial_gap_ms_p99", "ms", sortedCopy(load.gapsMS), 0.99)
	rep.setPercentile("daemon.create_ms_p50", "ms", create, 0.50)
	rep.setPercentile("daemon.create_ms_p99", "ms", create, 0.99)
	rep.set("daemon.delete_ms_p50", "ms", median(del), len(del))
	rep.setPercentile("daemon.nearest_ms_p50", "ms", nearest, 0.50)
	rep.setPercentile("daemon.nearest_ms_p99", "ms", nearest, 0.99)
	rep.set("daemon.sse_events", "count", float64(events), 0)
	rep.set("daemon.sse_bytes", "B", float64(bytes), 0)
	rep.set("daemon.sse_replay_us_per_event", "us", median(replay), len(replay))
	rep.set("daemon.rejected_429", "count", float64(rejected), 0)

	const probes = 21
	c := newClient(svc.daemon.base, nil, nil)
	defer c.close()
	healthz := make([]float64, probes)
	for i := range healthz {
		t0 := time.Now()
		code, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("GET /healthz: status %d, %v", code, err)
		}
		healthz[i] = ms(time.Since(t0))
		tr.add("daemon.healthz", t0, -1, -1)
	}
	rep.set("daemon.healthz_ms_p50", "ms", median(healthz), probes)
	return tr.spans, nil
}

// countSegments counts the repository's committed segment files; each WAL
// fold adds one.
func countSegments(repoDir string) int {
	segs, _ := filepath.Glob(filepath.Join(repoDir, "seg-*.seg")) // the pattern is well-formed
	return len(segs)
}

// writeSpans writes the pass's spans, kept in memory until now.
func writeSpans(path string, inprocess, overHTTP []span) error {
	data, err := json.Marshal(map[string][]span{"inprocess": inprocess, "http": overHTTP})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
