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
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"

	repro "repro"
	"repro/internal/dist"
	"repro/internal/tune/store"
)

// options is the parsed command line: the session spec the flags describe,
// plus what only the CLI cares about.
type options struct {
	spec                          repro.Spec
	list, curve, progress, resume bool
	repoDir, evaluators           string
}

// parseFlags maps the command line onto a session spec. Every tuning flag
// lands in one Spec field, so what the CLI runs is what the daemon would run
// for the same spec.
func parseFlags(args []string) (o options, err error) {
	var fid repro.FidelitySpec
	var sur repro.SurrogateSpec
	fs := flag.NewFlagSet("autotune", flag.ExitOnError)
	fs.StringVar(&o.spec.System, "system", "dbms", "system to tune (dbms, hadoop, spark, paralleldb)")
	fs.StringVar(&o.spec.Workload, "workload", "tpch", "workload name (see -list)")
	fs.StringVar(&o.spec.Tuner, "tuner", "ituned", "tuning approach (see -list)")
	fs.IntVar(&o.spec.Budget.Trials, "trials", 30, "trial budget (real runs)")
	fs.IntVar(&o.spec.Parallel, "parallel", 1, "worker count for batch trial evaluation (same result at any value)")
	fs.BoolVar(&o.spec.Memo, "memo", false, "memoize repeat evaluations of identical configurations")
	fs.Int64Var(&o.spec.Seed, "seed", 42, "random seed")
	fs.Float64Var(&o.spec.Target.ScaleGB, "scale", 0, "input scale in GB (0 = default)")
	fs.IntVar(&o.spec.Target.Nodes, "nodes", 16, "cluster size for distributed systems")
	fs.BoolVar(&o.spec.Target.Heterogeneous, "hetero", false, "use a heterogeneous cluster")
	fs.Float64Var(&o.spec.Target.TenantLoad, "tenants", 0, "multi-tenant background load (0..0.9)")
	fs.BoolVar(&o.list, "list", false, "list systems, workloads and tuners")
	fs.BoolVar(&o.curve, "curve", false, "print the best-so-far tuning curve")
	fs.BoolVar(&o.progress, "progress", false, "render a live trial/incumbent line from the event stream")
	fs.StringVar(&o.repoDir, "repo", "", "durable tuning-repository directory (load history, archive this session)")
	fs.BoolVar(&o.spec.WarmStart, "warm-start", false, "seed the tuner from the nearest past workload in -repo")
	fs.BoolVar(&o.resume, "resume", false, "with -repo: durably checkpoint progress at batch boundaries and resume the interrupted session of the identical spec (every tuning flag the same)")
	fs.StringVar(&fid.Strategy, "fidelity", "", `multi-fidelity bracket strategy: "hyperband" or "halving" (off when empty)`)
	fs.StringVar(&sur.Tier, "surrogate", "", `GP surrogate tier for model-based tuners: "auto", "exact", "sparse", or "rff" (empty = auto)`)
	fs.IntVar(&sur.SparseAbove, "sparse-above", 0, "trial count above which auto surrogate mode leaves the exact GP (0 = default 160)")
	fs.IntVar(&sur.RFFAbove, "rff-above", 0, "trial count above which auto surrogate mode switches to random Fourier features (0 = default 1500)")
	fs.StringVar(&o.evaluators, "evaluators", "", "comma-separated base URLs of autotune-evaluator processes to lease trials to")
	fs.BoolVar(&o.spec.Pareto, "pareto", false, "multi-objective tuning: a latency-vs-cost scalarization sweep that reports the Pareto front")
	fs.Float64Var(&o.spec.Guardrail, "guardrail", 0, "objective guardrail in seconds: screen proposals through a safety surrogate and count violations (0 = off)")
	fs.BoolVar(&o.spec.DriftDetect, "drift-detect", false, "watch for workload drift and restart the search from the remaining budget when it fires")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse
	if fid.Strategy != "" {
		o.spec.Fidelity = &fid
	}
	if sur != (repro.SurrogateSpec{}) {
		o.spec.Surrogate = &sur
	}
	if (o.spec.WarmStart || o.resume) && o.repoDir == "" {
		return o, fmt.Errorf("-warm-start and -resume require -repo (past sessions and checkpoints live in the repository directory)")
	}
	return o, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "autotune:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.list {
		fmt.Fprintln(out, "systems and workloads:")
		for _, s := range repro.Systems() {
			fmt.Fprintf(out, "  %-10s %v\n", s, repro.Workloads(s))
		}
		fmt.Fprintln(out, "tuners:")
		for _, name := range repro.Tuners() {
			cat, doc, _ := repro.TunerInfo(name)
			fmt.Fprintf(out, "  %-18s [%s] %s\n", name, cat, doc)
		}
		return nil
	}
	spec := o.spec
	var st store.Store // stays a nil interface without -repo
	if o.repoDir != "" {
		fs, err := store.Open(o.repoDir)
		if err != nil {
			return err
		}
		defer fs.Close()
		st = fs
		fmt.Fprintf(out, "repository %s: %d past sessions\n", o.repoDir, st.Len())
	}
	// With -resume the session's observation history is checkpointed into
	// the repository at every batch boundary and picked back up on the next
	// invocation with the same flags: the history replays into a fresh
	// proposer, so the continued run is identical to an uninterrupted one.
	var ckptSID string
	var replay *repro.Replay
	if o.resume {
		ckptSID = cliCheckpointID(spec)
		if cps, cerr := st.Checkpoints(); cerr == nil {
			for _, cp := range cps {
				if cp.SID == ckptSID && len(cp.Replay.Trials) > 0 {
					replay = &cp.Replay
					break
				}
			}
		}
	}
	var seeds, archivedAs int64
	var archiveErr error
	warned := false
	job, err := spec.JobOn(st, ckptSID, replay, func(op repro.StoreOp, n int64, err error) {
		switch op {
		case repro.WarmStarted:
			seeds = n
		case repro.Archived:
			archivedAs, archiveErr = n, err
		case repro.Checkpointed:
			if err != nil && !warned {
				warned = true
				fmt.Fprintf(os.Stderr, "autotune: checkpoint not saved, an interruption now would lose progress: %v\n", err)
			}
		}
	})
	if err != nil {
		return err
	}
	if urls := strings.FieldsFunc(o.evaluators, func(r rune) bool { return r == ',' || r == ' ' }); len(urls) > 0 {
		pool := dist.NewPool(urls, dist.PoolOptions{Name: "autotune"})
		job.Remote = pool.Backend(dist.SysModel{System: spec.System, Workload: spec.Workload, Seed: spec.Seed, Target: spec.Target})
		fmt.Fprintf(out, "evaluator fleet: %d evaluators, %d remote slots\n", len(urls), pool.Slots())
	}
	// The default-configuration baseline and a run-less session's verification
	// run go to a second target built from the same spec, so the session's own
	// target draws exactly the noise it would in the daemon or the library.
	target, err := repro.NewTarget(spec.System, spec.Workload, spec.Seed, spec.Target)
	if err != nil {
		return err
	}
	tuner := job.Tuner.Name()
	defRes := target.Run(target.Space().Default())
	fmt.Fprintf(out, "target %s: default configuration runs in %.1fs\n", target.Name(), defRes.Time)
	if spec.WarmStart {
		fmt.Fprintf(out, "warm start: %d configurations transferred from the nearest past workload\n", seeds)
	}
	if replay != nil {
		fmt.Fprintf(out, "resuming from checkpoint: %d trials already observed\n", len(replay.Trials))
	}

	session := repro.NewEngine(repro.EngineOptions{Workers: 1}).Submit(job)
	if o.progress {
		renderProgress(out, session, spec.Budget.Trials)
	}
	res, err := session.Wait(nil)
	if err != nil {
		return err
	}
	if o.resume {
		// The session completed; its checkpoint has nothing left to resume.
		_ = st.DeleteCheckpoint(ckptSID)
	}
	if archiveErr != nil {
		return fmt.Errorf("archiving session: %w", archiveErr)
	}
	if archivedAs > 0 {
		fmt.Fprintf(out, "archived session as repository id %d\n", archivedAs)
	}

	if spec.Pareto {
		fmt.Fprintf(out, "pareto front: %d trade-off points (latency, provisioned cost)\n", len(res.Front))
		for _, tr := range res.Front {
			fmt.Fprintf(out, "  %8.1fs  $%.2f\n", tr.Result.Objective(), tr.Result.Cost)
		}
	}
	if spec.Guardrail > 0 {
		fmt.Fprintf(out, "guardrail %.1fs: %d violations across %d trials\n", spec.Guardrail, res.GuardrailViolations, len(res.Trials))
	}
	if spec.DriftDetect {
		fmt.Fprintf(out, "drift detections: %d (search re-anchored after each)\n", res.DriftDetections)
	}
	if spec.Fidelity != nil {
		full := 0
		for _, t := range res.Trials {
			if t.Result.FullFidelity() {
				full++
			}
		}
		fmt.Fprintf(out, "fidelity schedule (%s): %d low-fidelity screens + %d full-fidelity runs\n", spec.Fidelity.Strategy, len(res.Trials)-full, full)
	}
	best := res.BestResult
	if len(res.Trials) == 0 {
		best = target.Run(res.Best)
		fmt.Fprintf(out, "%s recommended without running; verification run: %.1fs\n", tuner, best.Time)
	} else {
		fmt.Fprintf(out, "%s: best %.1fs after %d runs (%.1fs simulated tuning time)\n", tuner, best.Time, len(res.Trials), res.SimTimeUsed)
	}
	if best.Time > 0 {
		fmt.Fprintf(out, "speedup over default: %.2fx\n", defRes.Time/best.Time)
	}
	fmt.Fprintln(out, "recommended configuration:")
	m := res.Best.Map()
	for _, p := range target.Space().Params() {
		fmt.Fprintf(out, "  %-40s %s\n", p.Name, m[p.Name])
	}
	if o.curve {
		fmt.Fprintln(out, "tuning curve (best objective after each trial):")
		for i, v := range res.Curve() {
			fmt.Fprintf(out, "  %3d %.1f\n", i+1, v)
		}
	}
	return nil
}

// renderProgress draws the live trial/incumbent line from the run's event
// stream, folded as it arrives, until the session is done.
func renderProgress(out io.Writer, run *repro.Run, trials int) {
	var sum repro.StreamSummary
	for ev := range run.Events() {
		sum.Add(ev)
		if ev.Kind != repro.TrialDone && ev.Kind != repro.IncumbentImproved {
			continue
		}
		if best := sum.Rendered().BestResult; best != nil { // else no incumbent yet: its event follows immediately
			fmt.Fprintf(out, "\rtrial %3d/%d  incumbent %.1fs  (%.1fs simulated)   ", ev.Trial, trials, best.Time, sum.SimTimeUsed)
		}
	}
	if sum.BestTrial > 0 {
		fmt.Fprintln(out)
	}
}

// cliCheckpointID names the resume checkpoint of one spec: "cli-" and the
// FNV-64a of the spec's JSON, so only the identical spec resumes it. A spec
// that JSON cannot encode fails in JobOn, which encodes it again to
// checkpoint it.
func cliCheckpointID(s repro.Spec) string {
	b, _ := json.Marshal(s)
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("cli-%016x", h.Sum64())
}
