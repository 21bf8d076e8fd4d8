// Package tuners_test exercises every tuning category end-to-end against the
// simulated systems: budget discipline, improvement over defaults, and each
// approach's characteristic behaviours.
package tuners_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/dist"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/sysmodel/mapreduce"
	"repro/internal/sysmodel/spark"
	"repro/internal/tune"
	"repro/internal/tune/store"
	"repro/internal/tuners/adaptive"
	"repro/internal/tuners/costmodel"
	"repro/internal/tuners/experiment"
	"repro/internal/tuners/ml"
	"repro/internal/tuners/rulebased"
	"repro/internal/tuners/simulation"
	"repro/internal/workload"
)

func dbmsTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(3), seed)
}

func hadoopTarget(seed int64) *mapreduce.Hadoop {
	return mapreduce.New(cluster.Commodity(8), workload.TeraSort(8), seed)
}

func sparkTarget(seed int64) *spark.Spark {
	return spark.New(cluster.Commodity(8), workload.PageRank(1, 4), seed)
}

// requireImproves runs the tuner and asserts it beats the default by at
// least factor, within budget.
func requireImproves(t *testing.T, tuner tune.Tuner, target tune.Target, budget int, factor float64) *tune.TuningResult {
	t.Helper()
	def := target.Run(target.Space().Default())
	r, err := repro.Tune(context.Background(), target, tuner, tune.Budget{Trials: budget}, 1)
	if err != nil {
		t.Fatalf("%s: %v", tuner.Name(), err)
	}
	if len(r.Trials) > budget {
		t.Fatalf("%s: used %d trials over budget %d", tuner.Name(), len(r.Trials), budget)
	}
	best := r.BestResult
	if len(r.Trials) == 0 {
		best = target.Run(r.Best)
	}
	if best.Time*factor > def.Time {
		t.Errorf("%s: best %.1fs does not improve default %.1fs by %.1fx",
			tuner.Name(), best.Time, def.Time, factor)
	}
	return r
}

func TestRuleTunersImprove(t *testing.T) {
	requireImproves(t, rulebased.NewTuner(rulebased.DBMSRules()), dbmsTarget(1), 2, 1.3)
	requireImproves(t, rulebased.NewTuner(rulebased.HadoopRules()), hadoopTarget(2), 2, 3)
	requireImproves(t, rulebased.NewTuner(rulebased.SparkRules()), sparkTarget(3), 2, 3)
}

func TestNavigatorImproves(t *testing.T) {
	requireImproves(t, rulebased.NewNavigator(), dbmsTarget(4), 25, 1.5)
}

func TestCostModelsImprove(t *testing.T) {
	requireImproves(t, costmodel.NewSTMM(), dbmsTarget(5), 2, 1.3)
	requireImproves(t, costmodel.NewStarfish(6), hadoopTarget(6), 2, 3)
	requireImproves(t, costmodel.NewErnest(), sparkTarget(7), 8, 1.5)
}

func TestCostModelsRejectWrongTargets(t *testing.T) {
	if _, err := repro.Tune(context.Background(), dbmsTarget(8), costmodel.NewStarfish(1), tune.Budget{Trials: 2}, 1); err == nil {
		t.Error("starfish should reject non-Hadoop targets")
	}
	if _, err := repro.Tune(context.Background(), dbmsTarget(9), costmodel.NewErnest(), tune.Budget{Trials: 8}, 1); err == nil {
		t.Error("ernest should reject non-Spark targets")
	}
}

func TestSimulationTunersImprove(t *testing.T) {
	requireImproves(t, simulation.NewTraceWhatIf(10), dbmsTarget(10), 3, 1.2)
	requireImproves(t, simulation.NewADDM(), dbmsTarget(11), 20, 1.3)
	proxy := mapreduce.New(cluster.Commodity(8), workload.TeraSort(1), 99)
	proxy.NoiseStd = 0.001
	requireImproves(t, simulation.NewScaledProxy(proxy, 12), hadoopTarget(12), 4, 3)
}

func TestExperimentTunersImprove(t *testing.T) {
	requireImproves(t, &experiment.Random{Seed: 13}, dbmsTarget(13), 25, 2)
	requireImproves(t, &experiment.Grid{}, dbmsTarget(14), 25, 1.2)
	requireImproves(t, &experiment.RRS{Seed: 15}, dbmsTarget(15), 25, 2)
	requireImproves(t, experiment.NewSARD(16), dbmsTarget(16), 40, 2)
	requireImproves(t, experiment.NewAdaptiveSampling(17), dbmsTarget(17), 25, 2)
	requireImproves(t, experiment.NewITuned(18), dbmsTarget(18), 25, 2)
}

func TestSARDScreeningRanksEffectiveKnobs(t *testing.T) {
	ranking, effects, err := experiment.NewSARD(19).Screen(context.Background(), dbmsTarget(19), tune.Budget{Trials: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != dbmsTarget(19).Space().Dim() {
		t.Fatalf("ranking covers %d of %d params", len(ranking), dbmsTarget(19).Space().Dim())
	}
	// The known heavyweight knobs should rank above the known featherweight.
	pos := map[string]int{}
	for i, n := range ranking {
		pos[n] = i
	}
	if pos[dbms.WorkMemMB] > pos[dbms.LogLevel] && pos[dbms.BufferPoolMB] > pos[dbms.LogLevel] {
		t.Errorf("screening ranked log_level above both memory knobs: %v", ranking)
	}
	if len(effects) != len(ranking) {
		t.Errorf("%d effects for %d params", len(effects), len(ranking))
	}
}

// TestSessionsShareNothing: one instance of every registered tuner serves two
// concurrent sessions on two targets of one system it accepts, and each
// session equals the same session run alone on that instance afterwards —
// nothing one session computes (a screen's ranking, a mapped workload, a
// controller's cooldown, a replica's run counter) reaches another.
func TestSessionsShareNothing(t *testing.T) {
	ctx := context.Background()
	b := tune.Budget{Trials: 12}
	// One past session per system, for the repository-driven tuners.
	repo := &tune.Repository{}
	for _, past := range []interface {
		tune.Target
		WorkloadFeatures() map[string]float64
	}{dbmsTarget(3), sparkTarget(3), hadoopTarget(3)} {
		r, err := repro.Tune(ctx, past, &experiment.Random{Seed: 3}, tune.Budget{Trials: 12}, 1)
		if err != nil {
			t.Fatal(err)
		}
		system, wl, _ := strings.Cut(past.Name(), "/")
		repo.AddResult(system, wl, past.WorkloadFeatures(), r)
	}
	systems := []struct{ name, workloads string }{
		{"spark", "pagerank kmeans"}, {"dbms", "tpch mixed"}, {"hadoop", "terasort wordcount"},
	}
	opts := repro.TargetOptions{ScaleGB: 1}
	for _, name := range repro.Tuners() {
		t.Run(name, func(t *testing.T) {
			for _, sys := range systems {
				wls := strings.Fields(sys.workloads)
				target := func(i int) tune.Target {
					tg, err := repro.NewTarget(sys.name, wls[i], 7, opts)
					if err != nil {
						t.Fatal(err)
					}
					return tg
				}
				proxy, err := repro.NewTarget(sys.name, wls[0], 8, repro.TargetOptions{ScaleGB: 0.2})
				if err != nil {
					t.Fatal(err)
				}
				tuner, err := repro.NewTuner(name, repro.TunerOptions{Seed: 7, Repo: repo, TargetName: target(0).Name(), Proxy: proxy})
				if err != nil {
					t.Fatal(err)
				}
				if tune.CheckTuner(tuner, target(0), b) != nil || tune.CheckTuner(tuner, target(1), b) != nil {
					continue
				}
				jobs := []repro.Job{
					{Name: name, Tuner: tuner, Target: target(0), Budget: b},
					{Name: name, Tuner: tuner, Target: target(1), Budget: b},
				}
				for i, together := range repro.TuneJobs(ctx, jobs, 2) {
					if together.Err != nil {
						t.Fatal(together.Err)
					}
					alone, err := repro.Tune(ctx, target(i), tuner, b, 1)
					if err != nil {
						t.Fatal(err)
					}
					a, _ := json.Marshal(alone)
					c, _ := json.Marshal(together.Result)
					if string(a) != string(c) {
						t.Errorf("%s: the concurrent session differs from the session run alone", together.Result.Target)
					}
				}
				return
			}
			t.Fatal("no system with two workloads the tuner accepts")
		})
	}
}

func TestMLTunersImprove(t *testing.T) {
	requireImproves(t, ml.NewOtterTune(20, nil), dbmsTarget(20), 25, 2)
	requireImproves(t, ml.NewNeuralTuner(21), dbmsTarget(21), 25, 2)
}

func TestOtterTuneUsesRepository(t *testing.T) {
	// Build a repository from tpch sessions, then tune mixed.
	repo := &tune.Repository{}
	past := dbms.New(cluster.CommodityNode(), workload.TPCHLike(3), 100)
	r, err := repro.Tune(context.Background(), past, experiment.NewITuned(100), tune.Budget{Trials: 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	repo.AddResult("dbms", "tpch", past.WorkloadFeatures(), r)

	target := dbms.New(cluster.CommodityNode(), workload.MixedDB(2), 101)
	ot := ml.NewOtterTune(101, repo)
	r, err = repro.Tune(context.Background(), target, ot, tune.Budget{Trials: 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wl := ot.MappedWorkload("dbms", r.Trials); wl != "tpch" {
		t.Errorf("workload mapping selected %q, want the one past session, tpch", wl)
	}
}

func TestAdaptiveTunersRun(t *testing.T) {
	r := requireImproves(t, adaptive.NewCOLT(22), dbmsTarget(22), 5, 0.5) // adaptive pays online cost
	if len(r.Trials) != 2 {
		t.Errorf("COLT should record one trial per adaptive run (two in a session), got %d", len(r.Trials))
	}
	// Across runs the online tuner should improve (the last run benefits
	// from the previous run's converged configuration).
	first, last := r.Trials[0].Result.Time, r.Trials[len(r.Trials)-1].Result.Time
	if last > first*1.15 {
		t.Errorf("online runs regressed: %v → %v", first, last)
	}
}

func TestAdaptiveRejectsPlainTargets(t *testing.T) {
	// Hadoop does not implement AdaptiveTarget.
	if _, err := repro.Tune(context.Background(), hadoopTarget(23), adaptive.NewCOLT(23), tune.Budget{Trials: 2}, 1); err == nil {
		t.Error("COLT should reject non-adaptive targets")
	}
	at := &adaptive.AdaptiveTuner{Label: "x", NewController: func() tune.EpochController { return adaptive.NewMemoryManager() }}
	if _, err := repro.Tune(context.Background(), hadoopTarget(24), at, tune.Budget{Trials: 2}, 1); err == nil {
		t.Error("AdaptiveTuner should reject non-adaptive targets")
	}
}

func TestMemoryManagerReducesSpills(t *testing.T) {
	target := dbmsTarget(25)
	res := target.RunAdaptive(target.Space().Default(), adaptive.NewMemoryManager())
	// By the end the manager should have grown work_mem enough that spills
	// fell versus a static default run.
	static := target.Run(target.Space().Default())
	if res.Metrics["spilled_queries"] >= static.Metrics["spilled_queries"] {
		t.Errorf("memory manager should reduce spills: %v vs %v",
			res.Metrics["spilled_queries"], static.Metrics["spilled_queries"])
	}
}

func TestRecommenderWarmStart(t *testing.T) {
	repo := &tune.Repository{}
	past := hadoopTarget(26)
	r, err := repro.Tune(context.Background(), past, experiment.NewITuned(26), tune.Budget{Trials: 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	repo.AddResult("hadoop", "terasort", past.WorkloadFeatures(), r)

	fresh := hadoopTarget(27)
	rr, err := repro.Tune(context.Background(), fresh, adaptive.NewRecommender(27, repo), tune.Budget{Trials: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	def := fresh.Run(fresh.Space().Default())
	if rr.BestResult.Time >= def.Time {
		t.Errorf("warm start (%v) should beat default (%v)", rr.BestResult.Time, def.Time)
	}
}

// TestRecommenderRanksByNormalizedDistance: the recommender starts from the
// nearest past session under tune.RankSessions' per-key normalization. Under
// raw Euclidean distance the gigabyte-scaled input_gb swamps the unit-scaled
// selectivities and the other session would win.
func TestRecommenderRanksByNormalizedDistance(t *testing.T) {
	fresh := hadoopTarget(27)
	space := fresh.Space()
	past := func(wl string, x float64, edit func(f map[string]float64)) tune.SessionRecord {
		f := fresh.WorkloadFeatures()
		edit(f)
		vec := make([]float64, space.Dim())
		for i := range vec {
			vec[i] = x
		}
		return tune.SessionRecord{System: "hadoop", Workload: wl, ParamNames: space.Names(), Features: f,
			Trials: []tune.TrialRecord{{Vector: vec, Time: 100}}}
	}
	// Raw distances: 1 GB and a different job ≈ 1.2; 3 GB and the same job = 3.
	otherJob := past("other-job", 0.25, func(f map[string]float64) {
		f["input_gb"]++
		f["map_sel"], f["reduce_sel"] = f["map_sel"]+0.5, f["reduce_sel"]+0.5
	})
	sameJob := past("same-job", 0.75, func(f map[string]float64) { f["input_gb"] += 3 })
	repo := &tune.Repository{Sessions: []tune.SessionRecord{otherJob, sameJob}}

	res, err := repro.Tune(context.Background(), fresh, adaptive.NewRecommender(27, repo), tune.Budget{Trials: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Trials[0].Config.String(), space.FromVector(sameJob.Trials[0].Vector).String(); got != want {
		t.Errorf("recommender started from\n  %s\nwant the same job at another scale\n  %s", got, want)
	}
}

func TestSPEXCheckerDetectsAndRepairs(t *testing.T) {
	target := dbmsTarget(28)
	checker := rulebased.DBMSChecker()
	specs := target.Specs()
	bad := target.Space().Default().
		With(dbms.BufferPoolMB, 15000.0).
		With(dbms.WorkMemMB, 1024.0)
	violations := checker.Validate(bad, specs)
	if len(violations) == 0 {
		t.Fatal("checker should flag memory oversubscription")
	}
	repaired := bad.With(dbms.BufferPoolMB, 4096.0).With(dbms.WorkMemMB, 64.0)
	if v := checker.Validate(repaired, specs); len(v) != 0 {
		t.Errorf("config within the node's RAM flagged: %v", v)
	}
	if res := target.Run(repaired); res.Failed {
		t.Errorf("repaired config still fails: %s", res.FailReason)
	}
}

func TestCheckerAndBookLookup(t *testing.T) {
	for _, name := range []string{"dbms/x", "hadoop/x", "spark/x"} {
		if _, err := rulebased.BookFor(name); err != nil {
			t.Errorf("BookFor(%q): %v", name, err)
		}
	}
	if _, err := rulebased.BookFor("nosuch/x"); err == nil {
		t.Error("unknown system should error")
	}
}

func TestStarfishPredictTracksSimulator(t *testing.T) {
	target := hadoopTarget(30)
	target.NoiseStd = 0.001
	space := target.Space()
	cfg := space.Default().
		With(mapreduce.ReduceTasks, 32).
		With(mapreduce.JVMHeapMB, 1024.0).
		With(mapreduce.IOSortMB, 300.0)
	pred := costmodel.Predict(target.Job(), target.Cluster(), cfg)
	actual := target.Run(cfg).Time
	ratio := pred / actual
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("model prediction %v vs actual %v (ratio %.2f) outside 3x band", pred, actual, ratio)
	}
}

func TestTunersRespectContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tn := range []tune.Tuner{
		experiment.NewITuned(31),
		&experiment.Random{Seed: 31},
		ml.NewNeuralTuner(31),
	} {
		r, err := repro.Tune(ctx, dbmsTarget(31), tn, tune.Budget{Trials: 10}, 1)
		if err == nil && len(r.Trials) > 0 {
			t.Errorf("%s: ran %d trials after cancellation", tn.Name(), len(r.Trials))
		}
	}
}

// TestGoldenDeterminismCorpus is the table-driven determinism harness: every
// registered tuner runs on dbms/tpch and spark/pagerank at -parallel 1 and
// -parallel 4, and the session's entire marshaled event stream must be
// byte-identical — the repo-wide guarantee that parallelism never changes
// results, enforced for every tuner in one place instead of ad-hoc per-PR
// checks. Tuners that reject a target (wrong system, no adaptive hooks)
// must reject it identically at both parallelism levels.
func TestGoldenDeterminismCorpus(t *testing.T) {
	targets := []struct {
		system, workload string
		opts             repro.TargetOptions
	}{
		{"dbms", "tpch", repro.TargetOptions{ScaleGB: 2}},
		{"spark", "pagerank", repro.TargetOptions{ScaleGB: 1}},
	}
	stream := func(spec repro.Spec, parallel int) ([]string, string) {
		spec.Parallel = parallel
		eng := repro.NewEngine(repro.EngineOptions{Workers: parallel})
		run, err := repro.StartOn(context.Background(), eng, spec)
		if err != nil {
			return nil, err.Error()
		}
		var events []string
		for ev := range run.Events() {
			data, err := json.Marshal(ev)
			if err != nil {
				return nil, "marshal: " + err.Error()
			}
			events = append(events, string(data))
		}
		if _, err := run.Wait(nil); err != nil {
			return events, err.Error()
		}
		return events, ""
	}
	for _, name := range repro.Tuners() {
		for _, tc := range targets {
			t.Run(name+"/"+tc.system, func(t *testing.T) {
				spec := repro.Spec{
					System: tc.system, Workload: tc.workload, Tuner: name,
					Seed: 11, Budget: repro.Budget{Trials: 6}, Target: tc.opts,
				}
				if name == "scaled-proxy" {
					spec.Proxy = &repro.ProxySpec{ScaleGB: 0.4}
				}
				seq, seqErr := stream(spec, 1)
				par, parErr := stream(spec, 4)
				if seqErr != parErr {
					t.Fatalf("errors differ across parallelism:\n  p1: %s\n  p4: %s", seqErr, parErr)
				}
				if seqErr != "" {
					return // rejected identically on both paths: that is the contract
				}
				if len(seq) == 0 {
					t.Fatal("no events streamed")
				}
				if len(seq) != len(par) {
					t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
				}
				for i := range seq {
					if seq[i] != par[i] {
						t.Fatalf("event %d differs across parallelism:\n  p1: %s\n  p4: %s", i, seq[i], par[i])
					}
				}
			})
		}
	}
}

// TestGoldenSurrogateAboveThresholdDeterministic runs sessions that cross
// the schedule's switches at the production thresholds and requires the event
// stream to stay byte-identical at -parallel 1 vs 4 — the determinism
// contract extends past the exact-GP wall. On dbms/tpch iTuned and OtterTune
// leave the exact tier for the sparse one past n = 160; on spark/pagerank's
// full ~200-knob space (d > 32) OtterTune leaves it for RFF.
func TestGoldenSurrogateAboveThresholdDeterministic(t *testing.T) {
	stream := func(spec repro.Spec, parallel int) []string {
		t.Helper()
		spec.Parallel = parallel
		eng := repro.NewEngine(repro.EngineOptions{Workers: parallel})
		run, err := repro.StartOn(context.Background(), eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		var events []string
		for ev := range run.Events() {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, string(data))
		}
		if _, err := run.Wait(nil); err != nil {
			t.Fatal(err)
		}
		return events
	}
	for _, tc := range []struct {
		name string
		spec repro.Spec
	}{
		{"ituned/sparse", repro.Spec{
			System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: 11,
			Budget: repro.Budget{Trials: 200}, Target: repro.TargetOptions{ScaleGB: 2},
		}},
		{"ottertune/sparse", repro.Spec{
			System: "dbms", Workload: "tpch", Tuner: "ottertune", Seed: 11,
			Budget: repro.Budget{Trials: 200}, Target: repro.TargetOptions{ScaleGB: 2},
		}},
		{"ottertune/rff", repro.Spec{
			System: "spark", Workload: "pagerank", Tuner: "ottertune", Seed: 11,
			Budget: repro.Budget{Trials: 170}, Target: repro.TargetOptions{ScaleGB: 1, FullSparkSpace: true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := stream(tc.spec, 1)
			par := stream(tc.spec, 4)
			done := 0
			for _, ev := range seq {
				if strings.Contains(ev, `"kind":"trial_done"`) {
					done++
				}
			}
			if done != tc.spec.Budget.Trials {
				t.Fatalf("%d trials done, want all %d: the session never synced a model past n = 160", done, tc.spec.Budget.Trials)
			}
			if len(seq) != len(par) {
				t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
			}
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("event %d differs across parallelism:\n  p1: %s\n  p4: %s", i, seq[i], par[i])
				}
			}
		})
	}
}

// TestGoldenDeterminismFidelity extends the corpus to multi-fidelity
// sessions: for each fidelity strategy over representative inner tuners,
// the entire marshaled event stream — TrialStarted fidelities, TrialDone
// results, and crucially the TrialPruned ordering that rung decisions emit
// — must be byte-identical at -parallel 1 vs 4 on dbms/tpch and
// spark/pagerank.
func TestGoldenDeterminismFidelity(t *testing.T) {
	targets := []struct {
		system, workload string
		opts             repro.TargetOptions
	}{
		{"dbms", "tpch", repro.TargetOptions{ScaleGB: 2}},
		{"spark", "pagerank", repro.TargetOptions{ScaleGB: 1}},
	}
	stream := func(spec repro.Spec, parallel int) []string {
		t.Helper()
		spec.Parallel = parallel
		eng := repro.NewEngine(repro.EngineOptions{Workers: parallel})
		run, err := repro.StartOn(context.Background(), eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		var events []string
		for ev := range run.Events() {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, string(data))
		}
		if _, err := run.Wait(nil); err != nil {
			t.Fatal(err)
		}
		return events
	}
	for _, strategy := range []string{"hyperband", "halving"} {
		for _, tuner := range []string{"ituned", "random"} {
			for _, tc := range targets {
				t.Run(strategy+"/"+tuner+"/"+tc.system, func(t *testing.T) {
					spec := repro.Spec{
						System: tc.system, Workload: tc.workload, Tuner: tuner,
						Seed: 11, Budget: repro.Budget{Trials: 24}, Target: tc.opts,
						Fidelity: &repro.FidelitySpec{Strategy: strategy},
					}
					seq := stream(spec, 1)
					par := stream(spec, 4)
					if len(seq) == 0 {
						t.Fatal("no events streamed")
					}
					if len(seq) != len(par) {
						t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
					}
					var pruned int
					for i := range seq {
						if seq[i] != par[i] {
							t.Fatalf("event %d differs across parallelism:\n  p1: %s\n  p4: %s", i, seq[i], par[i])
						}
						if strings.Contains(seq[i], `"kind":"trial_pruned"`) {
							pruned++
						}
					}
					if pruned == 0 {
						t.Error("a multi-fidelity session emitted no trial_pruned events")
					}
				})
			}
		}
	}
}

// TestGoldenDeterminismWarmStart extends the corpus to the warm-start path:
// a warm-started session over a persistent repository directory must also
// be byte-identical at any parallelism (seeds are injected in proposal
// order, so the transferred trials batch like any others).
func TestGoldenDeterminismWarmStart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the repository with one past session.
	hist, err := repro.Spec{
		System: "spark", Workload: "kmeans", Tuner: "ituned",
		Seed: 5, Budget: repro.Budget{Trials: 10},
	}.JobOn(st, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.NewEngine(repro.EngineOptions{}).Submit(hist).Wait(nil); err != nil {
		t.Fatal(err)
	}

	// Freeze the corpus: both comparison runs must transfer from identical
	// history, and a run built on the store would archive itself into the
	// directory between them.
	sessions, err := st.ForSystem("spark")
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("repository has %d sessions, want the 1 the history run archived", len(sessions))
	}
	repo := &tune.Repository{Sessions: sessions}

	stream := func(parallel int) []string {
		spec := repro.Spec{
			System: "spark", Workload: "pagerank", Tuner: "ituned",
			Seed: 11, Budget: repro.Budget{Trials: 10}, Target: repro.TargetOptions{ScaleGB: 1},
			WarmStart: true, Parallel: parallel,
		}
		job, err := spec.JobWithWarm(repo, repo, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := repro.NewEngine(repro.EngineOptions{Workers: parallel})
		r := eng.Submit(job)
		var events []string
		for ev := range r.Events() {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, string(data))
		}
		if _, err := r.Wait(nil); err != nil {
			t.Fatal(err)
		}
		return events
	}
	seq := stream(1)
	par := stream(4)
	if len(seq) == 0 {
		t.Fatal("no events streamed")
	}
	if len(seq) != len(par) {
		t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("warm-start event %d differs across parallelism:\n  p1: %s\n  p4: %s", i, seq[i], par[i])
		}
	}
}

// TestGoldenMultiEvaluatorTopology extends the determinism corpus across
// the process boundary: the same spec must produce a byte-identical event
// stream evaluated locally at -parallel 1, fanned out to 4 local workers,
// and leased to a two-evaluator remote fleet (each evaluator rebuilding the
// target from the assignment's sysmodel over real HTTP). The fidelity
// variant additionally pins TrialPruned ordering while rung cancellation is
// aborting superfluous remote leases mid-flight.
func TestGoldenMultiEvaluatorTopology(t *testing.T) {
	newFleet := func(t *testing.T) *dist.Pool {
		t.Helper()
		var urls []string
		for i := 0; i < 2; i++ {
			ev := dist.NewEvaluator(dist.EvaluatorOptions{Workers: 2, HeartbeatEvery: 20 * time.Millisecond})
			srv := httptest.NewServer(ev.Handler())
			t.Cleanup(srv.Close)
			urls = append(urls, srv.URL)
		}
		return dist.NewPool(urls, dist.PoolOptions{})
	}
	stream := func(t *testing.T, spec repro.Spec, parallel int, pool *dist.Pool) []string {
		t.Helper()
		job, err := spec.Job()
		if err != nil {
			t.Fatal(err)
		}
		job.Parallel = parallel
		if pool != nil {
			job.Remote = pool.Backend(dist.SysModel{
				System: spec.System, Workload: spec.Workload,
				Seed: spec.Seed, Target: spec.Target,
			})
		}
		run := repro.NewEngine(repro.EngineOptions{Workers: parallel}).Submit(job)
		var events []string
		for ev := range run.Events() {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, string(data))
		}
		if _, err := run.Wait(nil); err != nil {
			t.Fatal(err)
		}
		return events
	}
	for _, name := range []string{"ituned", "random"} {
		for _, fidelity := range []bool{false, true} {
			label := name
			if fidelity {
				label += "/hyperband"
			}
			t.Run(label, func(t *testing.T) {
				spec := repro.Spec{
					System: "dbms", Workload: "tpch", Tuner: name,
					Seed: 11, Budget: repro.Budget{Trials: 8},
					Target: repro.TargetOptions{ScaleGB: 2},
				}
				if fidelity {
					spec.Budget.Trials = 16
					spec.Fidelity = &repro.FidelitySpec{Strategy: "hyperband"}
				}
				local := stream(t, spec, 1, nil)
				par := stream(t, spec, 4, nil)
				fleet := stream(t, spec, 2, newFleet(t))
				if len(local) == 0 {
					t.Fatal("no events streamed")
				}
				if fidelity {
					pruned := 0
					for _, ev := range local {
						if strings.Contains(ev, `"trial_pruned"`) {
							pruned++
						}
					}
					if pruned == 0 {
						t.Fatal("fidelity variant never pruned a trial; rung-cancellation ordering not covered")
					}
				}
				for label, got := range map[string][]string{"parallel-4": par, "fleet": fleet} {
					if len(got) != len(local) {
						t.Fatalf("%s: event counts differ: %d vs %d", label, len(local), len(got))
					}
					for i := range local {
						if local[i] != got[i] {
							t.Fatalf("%s: event %d differs:\n  local: %s\n  other: %s", label, i, local[i], got[i])
						}
					}
				}
			})
		}
	}
}
