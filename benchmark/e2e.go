package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	repro "repro"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

const (
	// defaultSeconds is the measured window when -seconds is not given;
	// BENCHMARK.json's run_seconds names the same value.
	defaultSeconds = 20
	// nclients is the closed loop's client count: nproc of the 2-CPU
	// container the bounds were recorded on. Fixed, not runtime.NumCPU, so
	// a number means the same load on every host.
	nclients = 2
	// corpusSessions is the repository workload's pre-built corpus size.
	corpusSessions = 100_000
	// setups is how many times one run sets the service up; setup_s is
	// their median.
	setups = 5
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists what a client of the tuning service feels, in the order
// reports print them. BENCHMARK.json carries the same list (a test keeps
// the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"session_wall_ms_p50", "ms", "lower", 0.25},
	{"trials_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_ktrial", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"tuned_runtime_s_gmean", "s", "lower", 0.25},
}

// value is one measured metric: the number with all its digits, its unit,
// and how many samples stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// Thin marks a percentile with fewer than ten samples beyond it: it
	// is printed, but the percentile rule does not vouch for it.
	Thin bool `json:"thin,omitempty"`
}

// report is one pass over one workload.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"window_s"`
	// HostSlowdown is what the pass's time-based end-to-end metrics were
	// divided by (see hostSlowdown); 0 on a traced pass, which reports raw.
	HostSlowdown float64 `json:"host_slowdown,omitempty"`
	// Correct, Attempted, Failed and Metrics are the driver's result line.
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	order     []string         // print order of Metrics
	// Operation counts and the digest: identical across -exact runs of one
	// seed.
	Trials         int64    `json:"trials"`
	Events         int64    `json:"events"`
	StreamDigest   string   `json:"stream_digest"`
	DigestSessions int      `json:"digest_sessions"`
	Verified       int      `json:"verified"`
	Errors         []string `json:"errors,omitempty"`
	Notes          []string `json:"notes,omitempty"`
}

func (r *report) set(name, unit string, v float64, n int) {
	if r.Metrics == nil {
		r.Metrics = map[string]value{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

// setPercentile records the q-quantile of samples under name, flagging it
// thin when the percentile rule does not support q at this sample count.
func (r *report) setPercentile(name, unit string, sorted []float64, q float64) {
	r.set(name, unit, quantile(sorted, q), len(sorted))
	if q > 0.5 && !supported(len(sorted), q) {
		v := r.Metrics[name]
		v.Thin = true
		r.Metrics[name] = v
	}
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// print writes the human-readable block and, as its last line, the
// driver's result object.
func (r *report) print(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s pass  window %.2f s  sessions %d  trials %d  events %d\n",
		r.Workload, r.Seed, pass, r.Seconds, r.Attempted, r.Trials, r.Events)
	for _, name := range r.order {
		v := r.Metrics[name]
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf("  n=%d", v.N)
		}
		if v.Thin {
			note += "  (fewer than 10 samples beyond)"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s%s\n", name, v.Value, v.Unit, note)
	}
	if r.HostSlowdown > 0 {
		fmt.Fprintf(w, "  host slowdown %.4f: ms, 1/s and cpu metrics above are at reference host speed; multiply times (divide rates) by it for the raw reading\n", r.HostSlowdown)
	}
	if r.StreamDigest != "" {
		fmt.Fprintf(w, "  stream_digest %s over the first %d sessions; %d re-run in-process\n",
			r.StreamDigest, r.DigestSessions, r.Verified)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// sizing is how big one pass is.
type sizing struct {
	seconds float64 // measured window; 0 = until limit sessions are done
	limit   int     // session cap; 0 = until the window closes
	// tracedLimit caps the traced pass's parts the same way (its windows
	// are fractions of seconds).
	tracedLimit int
	corpus      int
	setups      int
}

func sizeFor(w *workload, o options) sizing {
	switch {
	case o.smoke:
		n := max(w.sessions/50, w.shapes)
		return sizing{limit: n, tracedLimit: n, corpus: 2000, setups: 1}
	case o.exact:
		// The traced pass replays the list at a quarter of its length.
		return sizing{limit: w.sessions, tracedLimit: w.sessions / 4, corpus: corpusSessions, setups: setups}
	}
	return sizing{seconds: o.seconds, corpus: corpusSessions, setups: setups}
}

// runWorkload is one pass over one workload: build the inputs, set the
// service up, measure, tear down, check.
func (h *harness) runWorkload(ctx context.Context, w *workload, o options, traced bool) (report, error) {
	sz := sizeFor(w, o)
	rep := report{Workload: w.name, Seed: o.seed, Traced: traced, Correct: true}
	repoDir := ""
	if w.repo {
		repoDir = filepath.Join(h.scratch, fmt.Sprintf("repo-%s-%d", w.name, time.Now().UnixNano()))
		defer os.RemoveAll(repoDir) // 170 MB a pass: do not let -runs pile them up
		cs, err := buildCorpus(ctx, repoDir, o.seed, sz.corpus)
		if err != nil {
			return rep, err
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("corpus: %d sessions, %.1f MiB, bulk-appended in %.2f s",
			cs.records, cs.diskMB, cs.buildTime.Seconds()))
		if traced {
			rep.set("store.bulk_append_krec_per_s", "1/s", float64(cs.records)/1000/cs.buildTime.Seconds(), cs.records)
		}
	}
	if traced {
		return h.tracedPass(ctx, w, o.seed, sz, repoDir, rep)
	}
	return h.endToEndPass(ctx, w, o.seed, sz, repoDir, rep)
}

// setUp starts the service and drives one warm-up session per spec shape,
// so lazy work (store.Open, the first index build, evaluator registration,
// first-use allocations) is paid before the measured window — and is what
// setup_s times.
func (h *harness) setUp(ctx context.Context, w *workload, repoDir string) (*service, time.Duration, error) {
	t0 := time.Now()
	svc, err := h.startService(ctx, w, repoDir)
	if err != nil {
		return nil, 0, err
	}
	warm, err := drive(ctx, svc, w, setupSeed, warmBase, w.shapes, 0, 1, nil)
	took := time.Since(t0)
	if err == nil {
		for _, o := range warm.outcomes {
			if o.err != nil {
				err = fmt.Errorf("warm-up session %d: %w", o.index, o.err)
				break
			}
		}
	}
	if err != nil {
		svc.stop()
		return nil, 0, err
	}
	return svc, took, nil
}

func (h *harness) endToEndPass(ctx context.Context, w *workload, seed int64, sz sizing, repoDir string, rep report) (report, error) {
	var svc *service
	setupS := make([]float64, 0, sz.setups)
	for k := 0; k < sz.setups; k++ {
		if svc != nil {
			svc.stop()
		}
		s, took, err := h.setUp(ctx, w, repoDir)
		if err != nil {
			return rep, err
		}
		svc = s
		setupS = append(setupS, took.Seconds())
	}
	load, err := drive(ctx, svc, w, seed, 0, sz.limit, sz.seconds, nclients, nil)
	svc.stop()
	if err != nil {
		return rep, err
	}
	rep.set("setup_s", "s", median(setupS), len(setupS))
	clientMetrics(&rep, w, load)
	if err := h.verify(ctx, w, seed, repoDir, load.outcomes, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// hostSlowdown reads the host's speed during the window off the load
// generator itself. The sandbox this benchmark runs in shares its host: the
// same binary on the same seed swings by ±20% from one minute to the next,
// CPU seconds per trial and wall-clock alike, which no amount of work inside
// a 20 s window averages out. The load generator does a fixed amount of work
// per trial (HTTP exchanges, frame parsing, hashing — stdlib code over the
// same kernel paths the daemon uses), so what that work costs in CPU,
// relative to the workload's recorded reference, is how much slower than
// the reference host this window's host was. It tracks the daemon's own
// cost with r = 0.92–0.99 across runs. Time-based metrics are reported
// divided by it — "at reference host speed" — and the factor is printed, so
// the raw reading is one multiplication away.
//
// The yardstick must not move: a change that alters what the load
// generator has to do per trial (the stream's framing, say) moves it, and
// the references in workloads.go are then re-recorded by a change to the
// benchmark itself.
func hostSlowdown(w *workload, win window) float64 {
	if win.trials == 0 || win.clientCPUS <= 0 {
		return 1
	}
	return win.clientCPUS / float64(win.trials) * 1e6 / w.refClientUS
}

// clientMetrics turns a measured phase into the client-felt metrics and the
// failure count.
func clientMetrics(rep *report, w *workload, load loadResult) {
	win := load.window
	rep.Seconds = win.seconds
	rep.Attempted = len(load.outcomes)
	rep.HostSlowdown = hostSlowdown(w, win)
	k := rep.HostSlowdown
	var wall []float64
	best := make([][]float64, w.shapes)
	for _, o := range load.outcomes {
		rep.Trials += int64(o.trials)
		rep.Events += int64(o.events)
		if o.err != nil {
			rep.Failed++
			rep.fail("session %d: %v", o.index, o.err)
			continue
		}
		wall = append(wall, o.wallMS/k)
		best[w.shape(o.index)] = append(best[w.shape(o.index)], o.best)
	}
	rep.setPercentile("session_wall_ms_p50", "ms", sortedCopy(wall), 0.50)
	if win.trials > 0 && win.seconds > 0 {
		rep.set("trials_per_s", "1/s", float64(win.trials)/win.seconds*k, int(win.trials))
		rep.set("cpu_s_per_ktrial", "s", win.cpuS/float64(win.trials)*1000/k, int(win.trials))
	}
	rep.set("peak_rss_mb", "MB", win.rssMB, 0)
	// The geometric mean over sessions, taken shape by shape and then over
	// the shapes with equal weight: how many sessions of each shape a timed
	// window completes varies, and must not move a quality metric.
	g, n := gmeanOfGroups(best)
	rep.set("tuned_runtime_s_gmean", "s", g, n)
}

// verify is the correctness check beyond "every session finished with a
// best": the leading sessions are run again in this process, through the
// library and not the daemon, and each must produce the same SSE frames
// byte for byte. It also folds the leading sessions' digests into the
// workload's stream_digest.
func (h *harness) verify(ctx context.Context, w *workload, seed int64, repoDir string, got []sessionOutcome, rep *report) error {
	chain := sha256.New()
	for _, o := range got {
		if rep.DigestSessions == w.digestPrefix {
			break
		}
		chain.Write(o.digest[:])
		chain.Write(o.nearest[:])
		rep.DigestSessions++
	}
	rep.StreamDigest = hex.EncodeToString(chain.Sum(nil))

	var st *store.FileStore
	if repoDir != "" {
		var err error
		if st, err = store.Open(repoDir); err != nil {
			return fmt.Errorf("reopening the repository for the check: %w", err)
		}
		defer st.Close()
	}
	eng := repro.NewEngine(repro.EngineOptions{Workers: 1})
	for i := 0; i < w.verify && i < len(got); i++ {
		if got[i].err != nil {
			continue // already counted as failed
		}
		stream, nearest, err := referenceDigest(ctx, eng, w, seed, i, st)
		if err != nil {
			return fmt.Errorf("in-process reference for session %d: %w", i, err)
		}
		rep.Verified++
		if stream != got[i].digest {
			rep.Failed++
			rep.fail("session %d: daemon stream digest %x differs from the in-process run's %x", i, got[i].digest[:6], stream[:6])
		} else if nearest != got[i].nearest {
			rep.Failed++
			rep.fail("session %d: the daemon's nearest answer differs from the store's", i)
		}
	}
	return nil
}

// referenceDigest runs session i through the library in this process and
// digests its events framed as the daemon frames them; on a repository
// workload it also digests the store's answer to the session's nearest
// lookup, encoded as the daemon encodes it.
func referenceDigest(ctx context.Context, eng *repro.Engine, w *workload, seed int64, i int, st *store.FileStore) (stream, nearest [sha256.Size]byte, err error) {
	spec := w.spec(seed, i)
	var warm tune.WarmSource
	if st != nil {
		warm = st
	}
	job, err := spec.JobWithWarm(nil, warm, nil)
	if err != nil {
		return stream, nearest, err
	}
	run := eng.SubmitContext(ctx, job)
	d := newStreamDigest()
	for ev := range run.Events() {
		data, merr := json.Marshal(ev)
		if merr != nil {
			err = merr
			continue // keep draining so the run can finish
		}
		d.add(string(ev.Kind), data)
	}
	if _, rerr := run.Result(); err == nil {
		err = rerr
	}
	if err != nil || st == nil {
		return d.sum(), nearest, err
	}
	q, err := nearestQuery(seed, i)
	if err != nil {
		return stream, nearest, err
	}
	near, ok := st.Nearest(spec.System, q)
	if !ok {
		return stream, nearest, fmt.Errorf("repository has no %s session", spec.System)
	}
	answer, err := json.Marshal(map[string]any{"session": near, "url": fmt.Sprintf("/repository/sessions/%d", near.ID)})
	return d.sum(), sha256.Sum256(answer), err
}
