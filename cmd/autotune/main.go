// Command autotune tunes a simulated system with a chosen approach and
// prints the recommended configuration, the tuning curve, and the cost.
//
// Usage:
//
//	autotune -system dbms -workload tpch -tuner ituned -trials 30
//	autotune -system dbms -workload tpch -tuner ituned -parallel 4
//	autotune -system dbms -workload tpch -tuner ituned -progress
//	autotune -system dbms -workload mixed -tuner ituned -repo ./repo -warm-start
//	autotune -system dbms -workload tpch -tuner ituned -fidelity hyperband
//	autotune -system dbms -workload tpch -tuner ituned -evaluators http://host1:8081
//	autotune -system dbms -workload tpch -tuner ituned -pareto
//	autotune -system dbms -workload tpch -tuner ituned -guardrail 1200
//	autotune -system dbms -workload oltp-olap-shift -tuner ituned -drift-detect
//	autotune -list
//
// -parallel N evaluates proposed trial batches on N workers; results are
// identical at any parallelism for a fixed seed. -progress renders a live
// trial-count/incumbent line from the session's event stream. -repo names
// a durable repository directory: past sessions load from it (feeding
// repository-driven tuners and -warm-start's transfer) and this session is
// archived back into it on success. -fidelity runs the budget as
// successive-halving/Hyperband brackets: many cheap low-fidelity screens,
// full-cost runs only for the promoted survivors. -evaluators leases trial
// evaluations to remote autotune-evaluator processes; the result is
// byte-identical to local evaluation, only wall-clock changes. -pareto runs
// a latency-vs-cost scalarization sweep and reports the Pareto front,
// -guardrail screens proposals through a safety surrogate and counts
// objective-limit violations, and -drift-detect re-anchors the incumbent
// and restarts the search when the workload shifts mid-session (pair it
// with a drifting workload such as oltp-olap-shift or diurnal).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	repro "repro"
	"repro/internal/dist"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

func main() {
	var (
		system    = flag.String("system", "dbms", "system to tune (dbms, hadoop, spark, paralleldb)")
		wl        = flag.String("workload", "tpch", "workload name (see -list)")
		tuner     = flag.String("tuner", "ituned", "tuning approach (see -list)")
		trials    = flag.Int("trials", 30, "trial budget (real runs)")
		parallel  = flag.Int("parallel", 1, "worker count for batch trial evaluation (same result at any value)")
		memo      = flag.Bool("memo", false, "memoize repeat evaluations of identical configurations")
		memoCap   = flag.Int("memo-cap", 0, "bound the memo cache to N results with cost-aware GDSF eviction (0 = unbounded; implies -memo)")
		seed      = flag.Int64("seed", 42, "random seed")
		scale     = flag.Float64("scale", 0, "input scale in GB (0 = default)")
		nodes     = flag.Int("nodes", 16, "cluster size for distributed systems")
		hetero    = flag.Bool("hetero", false, "use a heterogeneous cluster")
		tenants   = flag.Float64("tenants", 0, "multi-tenant background load (0..0.9)")
		list      = flag.Bool("list", false, "list systems, workloads and tuners")
		showCurve = flag.Bool("curve", false, "print the best-so-far tuning curve")
		progress  = flag.Bool("progress", false, "render a live trial/incumbent line from the event stream")
		repoDir   = flag.String("repo", "", "durable tuning-repository directory (load history, archive this session)")
		warmStart = flag.Bool("warm-start", false, "seed the tuner from the nearest past workload in -repo")
		resume    = flag.Bool("resume", false, "with -repo: durably checkpoint progress at batch boundaries and resume a matching interrupted session (same system/workload/tuner/seed)")
		fidelity  = flag.String("fidelity", "", `multi-fidelity bracket strategy: "hyperband" or "halving" (off when empty)`)
		fidMin    = flag.Float64("fidelity-min", 0, "lowest fidelity fraction evaluated (0 = default 1/9)")
		fidEta    = flag.Float64("fidelity-eta", 0, "rung promotion ratio (0 = default 3)")
		surrogate = flag.String("surrogate", "", `GP surrogate tier for model-based tuners: "auto", "exact", "sparse", or "rff" (empty = auto)`)
		spAbove   = flag.Int("sparse-above", 0, "trial count above which auto surrogate mode leaves the exact GP (0 = default 160)")
		rffAbove  = flag.Int("rff-above", 0, "trial count above which auto surrogate mode switches to random Fourier features (0 = default 1500)")
		evals     = flag.String("evaluators", "", "comma-separated base URLs of autotune-evaluator processes to lease trials to")
		pareto    = flag.Bool("pareto", false, "multi-objective tuning: a latency-vs-cost scalarization sweep that reports the Pareto front")
		guardrail = flag.Float64("guardrail", 0, "objective guardrail in seconds: screen proposals through a safety surrogate and count violations (0 = off)")
		driftDet  = flag.Bool("drift-detect", false, "watch for workload drift and restart the search from the remaining budget when it fires")
	)
	flag.Parse()

	if *warmStart && *repoDir == "" {
		fatal(fmt.Errorf("-warm-start requires -repo"))
	}
	if *resume && *repoDir == "" {
		fatal(fmt.Errorf("-resume requires -repo (checkpoints live in the repository directory)"))
	}
	if *guardrail < 0 {
		fatal(fmt.Errorf("-guardrail must be ≥ 0 (0 = off), got %v", *guardrail))
	}
	if *fidelity != "" && (*pareto || *guardrail > 0 || *driftDet) {
		fatal(fmt.Errorf("-fidelity cannot combine with -pareto/-guardrail/-drift-detect: partial-fidelity objectives are not comparable to the full-workload limits and fronts these scenarios reason over"))
	}

	if *list {
		fmt.Println("systems and workloads:")
		for _, s := range repro.Systems() {
			fmt.Printf("  %-10s %v\n", s, repro.Workloads(s))
		}
		fmt.Println("tuners:")
		for _, name := range repro.Tuners() {
			cat, doc, _ := repro.TunerInfo(name)
			fmt.Printf("  %-18s [%s] %s\n", name, cat, doc)
		}
		return
	}

	topts := repro.TargetOptions{
		ScaleGB: *scale, Nodes: *nodes, Heterogeneous: *hetero, TenantLoad: *tenants,
	}
	target, err := repro.NewTarget(*system, *wl, *seed, topts)
	if err != nil {
		fatal(err)
	}
	var remote repro.RemoteBackend
	if *evals != "" {
		var urls []string
		for _, u := range strings.Split(*evals, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		pool := dist.NewPool(urls, dist.PoolOptions{Name: "autotune"})
		remote = pool.Backend(dist.SysModel{System: *system, Workload: *wl, Seed: *seed, Target: topts})
		fmt.Printf("evaluator fleet: %d evaluators, %d remote slots\n", len(urls), pool.Slots())
	}
	def := target.Space().Default()
	defRes := target.Run(def)
	fmt.Printf("target %s: default configuration runs in %.1fs\n", target.Name(), defRes.Time)

	var features map[string]float64
	if d, ok := target.(tune.Describer); ok {
		features = d.WorkloadFeatures()
	}
	var st *store.FileStore
	var repo *repro.Repository
	if *repoDir != "" {
		st, err = store.Open(*repoDir)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		// Only repository-driven tuners need every past session in memory;
		// warm start runs on the store's feature index, so a million-session
		// repository opens in index-read time on the common path.
		if repro.TunerNeedsRepository(*tuner) {
			repo, err = st.Repository()
			if err != nil {
				fatal(err)
			}
		}
		fmt.Printf("repository %s: %d past sessions\n", *repoDir, st.Len())
	}

	var surSpec *repro.SurrogateSpec
	if *surrogate != "" || *spAbove > 0 || *rffAbove > 0 {
		surSpec = &repro.SurrogateSpec{Tier: *surrogate, SparseAbove: *spAbove, RFFAbove: *rffAbove}
		if err := surSpec.Validate(); err != nil {
			fatal(err)
		}
	}
	tn, err := repro.NewTuner(*tuner, repro.TunerOptions{Seed: *seed, Repo: repo, TargetName: target.Name(), Surrogate: surSpec})
	if err != nil {
		fatal(err)
	}
	// Scenario wrapper order matches repro.Spec.Job: base tuner → pareto
	// fan-out → guardrail screen → warm-start seeding → fidelity schedule →
	// drift detection (outermost, so a re-anchor rebuilds the whole stack).
	if *pareto {
		bt, ok := tn.(tune.BatchTuner)
		if !ok {
			fatal(fmt.Errorf("tuner %q has no ask/tell form and cannot run multi-objective", *tuner))
		}
		subs := []tune.BatchTuner{bt}
		for i := 1; i < len(tune.DefaultParetoWeights); i++ {
			sub, err := repro.NewTuner(*tuner, repro.TunerOptions{
				Seed: *seed + int64(i), Repo: repo, TargetName: target.Name(), Surrogate: surSpec,
			})
			if err != nil {
				fatal(err)
			}
			sbt, ok := sub.(tune.BatchTuner)
			if !ok {
				fatal(fmt.Errorf("tuner %q has no ask/tell form and cannot run multi-objective", *tuner))
			}
			subs = append(subs, sbt)
		}
		mo, err := tune.MultiObjectiveTuner(subs, tune.DefaultParetoWeights)
		if err != nil {
			fatal(err)
		}
		tn = mo
	}
	if *guardrail > 0 {
		bt, ok := tn.(tune.BatchTuner)
		if !ok {
			fatal(fmt.Errorf("tuner %q has no ask/tell form and cannot run a guardrail screen", *tuner))
		}
		gt, err := tune.GuardrailTuner(bt, tune.GuardrailOptions{Limit: *guardrail})
		if err != nil {
			fatal(err)
		}
		tn = gt
	}
	if *warmStart {
		bt, ok := tn.(tune.BatchTuner)
		if !ok {
			fatal(fmt.Errorf("tuner %q has no ask/tell form and cannot warm-start", *tuner))
		}
		seeds := st.WarmConfigs(*system, features, target.Space(), repro.WarmSeeds)
		tn = tune.WarmStartTuner(bt, seeds)
		fmt.Printf("warm start: %d configurations transferred from the nearest past workload\n", len(seeds))
	}
	if *fidelity != "" {
		bt, ok := tn.(tune.BatchTuner)
		if !ok {
			fatal(fmt.Errorf("tuner %q has no ask/tell form and cannot run a fidelity schedule", *tuner))
		}
		if err := tune.Resolve(target).RequireFidelity(); err != nil {
			fatal(err)
		}
		mf, err := tune.NewMultiFidelity(bt, tune.FidelitySpace{Min: *fidMin, Eta: *fidEta}, *fidelity, *seed)
		if err != nil {
			fatal(err)
		}
		tn = mf
	}
	if *driftDet {
		bt, ok := tn.(tune.BatchTuner)
		if !ok {
			fatal(fmt.Errorf("tuner %q has no ask/tell form and cannot run drift detection", *tuner))
		}
		tn = tune.DriftDetectTuner(bt, tune.DriftOptions{})
	}
	// With -resume the session's observation history is checkpointed into
	// the repository at every batch boundary and picked back up on the next
	// invocation with the same flags: the history replays into a fresh
	// proposer, so the continued run is identical to an uninterrupted one.
	var ckptSID string
	var ckptHook func(tune.CheckpointState)
	var replay *tune.Replay
	if *resume {
		ckptSID = cliCheckpointID(*system, *wl, *tuner, *fidelity, *seed)
		meta, merr := json.Marshal(map[string]any{
			"system": *system, "workload": *wl, "tuner": *tuner,
			"fidelity": *fidelity, "seed": *seed, "trials": *trials,
		})
		if merr != nil {
			fatal(merr)
		}
		if cps, cerr := st.Checkpoints(); cerr == nil {
			for _, cp := range cps {
				if cp.SID == ckptSID && len(cp.Replay.Trials) > 0 {
					r := cp.Replay
					replay = &r
					fmt.Printf("resuming from checkpoint: %d trials already observed\n", len(r.Trials))
					break
				}
			}
		}
		warned := false
		ckptHook = func(cs tune.CheckpointState) {
			err := st.SaveCheckpoint(store.SessionCheckpoint{
				SID: ckptSID, Spec: meta, Replay: cs.Replay(),
				Trials: len(cs.Trials), UpdatedAt: time.Now(),
			})
			if err != nil && !warned {
				warned = true
				fmt.Fprintf(os.Stderr, "autotune: checkpoint not saved, an interruption now would lose progress: %v\n", err)
			}
		}
	}
	eng := repro.NewEngine(repro.EngineOptions{
		Workers: *parallel, Cache: *memo, CacheCap: *memoCap, Remote: remote,
		Checkpoint: ckptHook, Replay: replay,
	})
	budget := tune.Budget{Trials: *trials}
	ctx := context.Background()
	if sc := (tune.Scenario{Pareto: *pareto, Guardrail: *guardrail}); sc.Pareto || sc.Guardrail > 0 {
		ctx = tune.WithScenario(ctx, sc)
	}
	var res *repro.TuningResult
	if *progress {
		// The session-handle path: submit, render the live event stream,
		// then wait. Identical result to the blocking path below.
		run := eng.Submit(repro.Job{
			Name: target.Name() + "/" + tn.Name(), Tuner: tn, Target: target,
			Budget: budget, Parallel: *parallel, Remote: remote,
			Checkpoint: ckptHook, Replay: replay,
			Pareto: *pareto, Guardrail: *guardrail,
		})
		best, simUsed := math.Inf(1), 0.0
		shown := false
		line := func(trial int) {
			if math.IsInf(best, 1) {
				return // no incumbent yet (its event follows immediately)
			}
			fmt.Printf("\rtrial %3d/%d  incumbent %.1fs  (%.1fs simulated)   ",
				trial, *trials, best, simUsed)
			shown = true
		}
		for ev := range run.Events() {
			switch ev.Kind {
			case repro.TrialDone:
				simUsed = ev.SimTimeUsed
				line(ev.Trial)
			case repro.IncumbentImproved:
				best = ev.Result.Time
				line(ev.Trial)
			}
		}
		if shown {
			fmt.Println()
		}
		res, err = run.Wait(ctx)
	} else {
		res, err = eng.Tune(ctx, target, tn, budget)
	}
	if err != nil {
		fatal(err)
	}
	if *resume {
		// The session completed; its checkpoint has nothing left to resume.
		_ = st.DeleteCheckpoint(ckptSID)
	}
	if st != nil && len(res.Trials) > 0 {
		id, err := st.Append(tune.NewSessionRecord(*system, *wl, features, res))
		if err != nil {
			fatal(fmt.Errorf("archiving session: %w", err))
		}
		fmt.Printf("archived session as repository id %d\n", id)
	}

	if *pareto {
		fmt.Printf("pareto front: %d trade-off points (latency, provisioned cost)\n", len(res.Front))
		for _, tr := range res.Front {
			fmt.Printf("  %8.1fs  $%.2f\n", tr.Result.Objective(), tr.Result.Cost)
		}
	}
	if *guardrail > 0 {
		fmt.Printf("guardrail %.1fs: %d violations across %d trials\n",
			*guardrail, res.GuardrailViolations, len(res.Trials))
	}
	if *driftDet {
		fmt.Printf("drift detections: %d (search re-anchored after each)\n", res.DriftDetections)
	}
	if *fidelity != "" {
		full, partial := 0, 0
		for _, t := range res.Trials {
			if t.Result.FullFidelity() {
				full++
			} else {
				partial++
			}
		}
		fmt.Printf("fidelity schedule (%s): %d low-fidelity screens + %d full-fidelity runs\n",
			*fidelity, partial, full)
	}
	best := res.BestResult
	if len(res.Trials) == 0 {
		best = target.Run(res.Best)
		fmt.Printf("%s recommended without running; verification run: %.1fs\n", tn.Name(), best.Time)
	} else {
		fmt.Printf("%s: best %.1fs after %d runs (%.1fs simulated tuning time)\n",
			tn.Name(), best.Time, len(res.Trials), res.SimTimeUsed)
	}
	if best.Time > 0 {
		fmt.Printf("speedup over default: %.2fx\n", defRes.Time/best.Time)
	}
	fmt.Println("recommended configuration:")
	m := res.Best.Map()
	for _, p := range target.Space().Params() {
		fmt.Printf("  %-40s %s\n", p.Name, m[p.Name])
	}
	if *showCurve {
		fmt.Println("tuning curve (best objective after each trial):")
		for i, v := range res.Curve() {
			fmt.Printf("  %3d %.1f\n", i+1, v)
		}
	}
}

// cliCheckpointID names the resume checkpoint for one flag combination: two
// invocations with the same system/workload/tuner/fidelity/seed address the
// same interrupted session. Sanitized to the store's session-id alphabet.
func cliCheckpointID(system, wl, tuner, fidelity string, seed int64) string {
	id := fmt.Sprintf("cli-%s-%s-%s-%d", system, wl, tuner, seed)
	if fidelity != "" {
		id = fmt.Sprintf("cli-%s-%s-%s-%s-%d", system, wl, tuner, fidelity, seed)
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autotune:", err)
	os.Exit(1)
}
