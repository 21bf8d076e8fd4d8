package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	repro "repro"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

// workload is one traffic mix. Its session list is a pure function of
// (name, seed): spec(seed, i) is session i, for any i ≥ 0, and the program
// under test receives nothing but those specs.
type workload struct {
	name string
	why  string
	// repo starts the daemon with -repo on a pre-built corpus, and follows
	// every session with one POST /repository/nearest.
	repo bool
	// evaluators is how many 1-slot autotune-evaluator children the daemon
	// leases trials to.
	evaluators int
	// shapes is how many distinct spec shapes the list mixes, and shape(i)
	// in [0, shapes) is session i's. Sessions 0..shapes-1 cover each shape
	// once (warm-up and the transparency test rely on that).
	shapes int
	shape  func(i int) int
	// spec returns session i of the list for seed.
	spec func(seed int64, i int) repro.Spec
	// sessions is the fixed operation count of -exact mode, sized for a
	// 30–45 s phase on a 2-CPU host.
	sessions int
	// digestPrefix is how many leading sessions stream_digest covers: few
	// enough that every timed run completes them, so digests of two runs of
	// one seed compare even when the runs completed different counts.
	digestPrefix int
	// verify is how many leading sessions are re-run in-process after the
	// measured phase and compared digest for digest.
	verify int
	// refClientUS is the load generator's own CPU per trial, in
	// microseconds, on the host the bounds were recorded on (median of the
	// recorded runs). It only fixes the scale of hostSlowdown.
	refClientUS float64
}

// Warm-up sessions and the repository's base sessions are the same on every
// run: they are set-up, not traffic, and letting them follow -seed only adds
// their luck (a slow warm-up session, a base session that happened on a good
// configuration for every later warm start) to setup_s and to the quality
// metric. warmBase offsets them away from the measured list while keeping
// their shape cycle aligned (a multiple of every cycle length).
const (
	setupSeed = 0
	warmBase  = 3_000_000
)

func sessionSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

var dbmsCycle = []string{"tpch", "oltp", "mixed"}

func cycle3(i int) int { return i % 3 }

// modelMix is the model workload's cycle of ten: seven iTuned sessions to
// three OtterTune ones (1 marks OtterTune). OtterTune's are the slower, so
// the median session sits well inside the iTuned mode (its 71st percentile)
// and p90 well inside the OtterTune mode (its 67th) — at 6:4 the median sat
// at the iTuned mode's edge and jumped between modes from run to run. The
// first two entries differ, so sessions 0 and 1 cover both shapes.
var modelMix = [10]int{0, 1, 0, 0, 0, 1, 0, 0, 1, 0}

var workloads = []*workload{
	{
		name: "short_sessions",
		why: "8-trial random sessions, evaluation and proposal cost microseconds: daemon (POST, admission, SSE), engine " +
			"(submit, slot, event ring) and JSON do the work; gp, linalg, store, dist idle",
		shapes: 3,
		shape:  cycle3,
		spec: func(seed int64, i int) repro.Spec {
			return repro.Spec{System: "dbms", Workload: dbmsCycle[i%3], Tuner: "random",
				Seed: sessionSeed(seed, i), Budget: repro.Budget{Trials: 8}}
		},
		sessions:     16000,
		digestPrefix: 2000,
		verify:       64,
		refClientUS:  92,
	},
	{
		name: "model_sessions",
		why: "70% ituned x300 on dbms/tpch (exact then sparse GP tier), 30% ottertune x120 on spark/pagerank: linalg, gp " +
			"and Proposer.Propose dominate, HTTP/SSE under 1%; store, dist idle",
		shapes: 2,
		shape:  func(i int) int { return modelMix[i%len(modelMix)] },
		spec: func(seed int64, i int) repro.Spec {
			if modelMix[i%len(modelMix)] == 1 {
				return repro.Spec{System: "spark", Workload: "pagerank", Tuner: "ottertune",
					Seed: sessionSeed(seed, i), Budget: repro.Budget{Trials: 120}}
			}
			return repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned",
				Seed: sessionSeed(seed, i), Budget: repro.Budget{Trials: 300}}
		},
		sessions:     150,
		digestPrefix: 20,
		verify:       2,
		refClientUS:  84,
	},
	{
		name: "warm_repo",
		why: "daemon on a 100k-session repository: 30-trial warm-started ituned sessions, checkpointed per batch, archived, each " +
			"followed by a nearest lookup: store reads (VP-tree) beside writes (fsync, WAL fold)",
		repo:   true,
		shapes: 3,
		shape:  cycle3,
		spec: func(seed int64, i int) repro.Spec {
			return repro.Spec{System: "dbms", Workload: dbmsCycle[i%3], Tuner: "ituned", WarmStart: true,
				Seed: sessionSeed(seed, i), Budget: repro.Budget{Trials: 30}}
		},
		sessions:     2000,
		digestPrefix: 300,
		verify:       6,
		refClientUS:  88,
	},
	{
		name: "fleet_fidelity",
		why: "81-trial hyperband sessions on spark/pagerank with two 1-slot evaluator processes: the only workload where dist " +
			"(lease round-trip, routing) and engine rung dispatch carry trials; gp, store idle",
		evaluators: 2,
		shapes:     1,
		shape:      func(int) int { return 0 },
		spec: func(seed int64, i int) repro.Spec {
			return repro.Spec{System: "spark", Workload: "pagerank", Tuner: "random",
				Fidelity: &repro.FidelitySpec{Strategy: "hyperband"}, Parallel: 2,
				Seed: sessionSeed(seed, i), Budget: repro.Budget{Trials: 81}}
		},
		sessions:     200,
		digestPrefix: 30,
		verify:       4,
		refClientUS:  47,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// dbmsFeatures returns, for each workload of dbmsCycle, the feature map its
// target reports — what warm start queries the repository with. Features
// do not depend on the target's seed, so they are computed once.
var dbmsFeatures = sync.OnceValues(func() ([]map[string]float64, error) {
	out := make([]map[string]float64, len(dbmsCycle))
	for i, wl := range dbmsCycle {
		t, err := repro.NewTarget("dbms", wl, 0)
		if err != nil {
			return nil, err
		}
		d, ok := t.(tune.Describer)
		if !ok {
			return nil, fmt.Errorf("benchmark: target dbms/%s reports no workload features", wl)
		}
		out[i] = d.WorkloadFeatures()
	}
	return out, nil
})

// nearestQuery is the lookup that follows session i of a repository
// workload: the session's own workload features scaled down by seeded
// per-key factors, so queries land between corpus points (exercising the
// index walk) but never outside the index's build-time scale (which would
// force a rescan).
func nearestQuery(seed int64, i int) (map[string]float64, error) {
	feats, err := dbmsFeatures()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sessionSeed(seed, i) ^ 0x5eed))
	return jitter(feats[i%len(feats)], rng), nil
}

// jitter scales every feature by a factor in [0.25, 1), walking keys in
// sorted order so the result is a pure function of the rng state.
func jitter(base map[string]float64, rng *rand.Rand) map[string]float64 {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]float64, len(base))
	for _, k := range keys {
		out[k] = base[k] * (0.25 + 0.75*rng.Float64())
	}
	return out
}

// corpusStats is what building the repository corpus measured.
type corpusStats struct {
	records   int
	buildTime time.Duration // BulkAppend only
	diskMB    float64
}

// buildCorpus writes an n-session repository into dir. Three real 8-trial
// sessions (one per dbms workload the repository workload submits) come
// first, whole and with their exact workload features: a warm start's
// nearest session is then always one of ids 1–3 — distance 0, and ties
// break to the lowest id — so sessions archived while the benchmark runs
// never change what a later session transfers, and results stay independent
// of how the clients interleave. The rest replicate those records with
// seeded feature jitter, trimmed to what a warm start can transfer (the
// WarmSeeds best trials, without runtime metrics): a whole record is 8 KB,
// and 100 000 of them would cost every run a gigabyte of disk.
func buildCorpus(ctx context.Context, dir string, seed int64, n int) (corpusStats, error) {
	jobs := make([]repro.Job, len(dbmsCycle))
	for i, wl := range dbmsCycle {
		job, err := repro.Spec{System: "dbms", Workload: wl, Tuner: "random",
			Seed: sessionSeed(setupSeed, warmBase+i), Budget: repro.Budget{Trials: 8}}.Job()
		if err != nil {
			return corpusStats{}, err
		}
		jobs[i] = job
	}
	feats, err := dbmsFeatures()
	if err != nil {
		return corpusStats{}, err
	}
	base := make([]tune.SessionRecord, len(jobs))
	for i, r := range repro.TuneJobs(ctx, jobs, 1) {
		if r.Err != nil {
			return corpusStats{}, fmt.Errorf("benchmark: corpus base session %s: %w", r.Name, r.Err)
		}
		base[i] = tune.NewSessionRecord("dbms", dbmsCycle[i], feats[i], r.Result)
	}
	slim := make([]tune.SessionRecord, len(base))
	for i, rec := range base {
		slim[i] = rec
		slim[i].Trials = bestTrials(rec, repro.WarmSeeds)
	}
	rng := rand.New(rand.NewSource(seed))
	recs := make([]tune.SessionRecord, n)
	for i := range recs {
		if i < len(base) {
			recs[i] = base[i]
			continue
		}
		recs[i] = slim[i%len(slim)]
		recs[i].Features = jitter(recs[i].Features, rng)
	}
	st, err := store.Open(dir)
	if err != nil {
		return corpusStats{}, err
	}
	t0 := time.Now()
	_, err = st.BulkAppend(recs)
	built := time.Since(t0)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return corpusStats{}, err
	}
	mb, err := dirMB(dir)
	return corpusStats{records: n, buildTime: built, diskMB: mb}, err
}

// bestTrials returns rec's k best successful trials, best first, without
// their runtime metrics.
func bestTrials(rec tune.SessionRecord, k int) []tune.TrialRecord {
	var ok []tune.TrialRecord
	for _, t := range rec.Trials {
		if !t.Failed {
			t.Metrics = nil
			ok = append(ok, t)
		}
	}
	sort.SliceStable(ok, func(a, b int) bool { return ok[a].Time < ok[b].Time })
	if len(ok) > k {
		ok = ok[:k]
	}
	return ok
}

// dirMB sums the regular files under dir, in MiB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}
