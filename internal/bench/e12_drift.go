package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/workload"
)

// Drift measures tuning under workload drift — the scenario every static
// tuner in the survey silently assumes away. The target starts as an OLTP
// transaction mix and shifts to TPC-H-style analytics a third of the way
// through the budget (workload.Drift keyed by global run index, so the
// shift point is identical at any parallelism). Baseline iTuned keeps the
// incumbent it converged to on the pre-shift workload; drift-detecting
// iTuned (tune.DriftDetectTuner) notices the windowed incumbent regression,
// re-anchors the session, and restarts its search against the post-shift
// landscape.
//
// The headline metric is deployed regret-over-time: at every post-shift
// step, the configuration the session would deploy (its incumbent — the
// thing /status reports and an operator would ship) is evaluated against
// the ENDING workload, and the per-step mean is the regret. This is the
// standard dynamic-optimization framing: it charges the baseline for
// serving a stale config trial after trial, and charges the detector for
// its reaction latency and for any bad interim incumbents its restart
// promotes — but not for offline exploration it never deploys. Both
// variants share the seed, budget, and shift point; they differ only in
// whether anything reacts to the shift.
func Drift(o Options) *Table {
	t := &Table{
		Title: "E12 (drift): workload shift mid-session — static tuning vs drift detection (dbms oltp→olap)",
		Columns: []string{
			"approach", "trials", "detections", "final config on olap",
			"deployed regret/step", "regret reduction",
		},
	}
	b := o.budget()
	if b.Trials < 20 {
		// The shift lands a third of the way in; with fewer than ~7 trials
		// pre-shift neither variant has time to converge before drifting.
		b.Trials = 20
	}
	// Shift after the first third: drift detection pays a fixed reaction cost
	// (detection latency + a fresh design phase), so the comparison needs
	// enough post-shift runway for the recovered search to amortize it — the
	// regime the scenario is about. A shift in the final trials is
	// unrecoverable for any detector and measures nothing.
	shiftAt := int64(b.Trials / 3)
	scale := o.scaleGB(4, 2)

	// Each job owns its target (engine contract), so the drift schedule is
	// rebuilt per variant: OLTP for the first half of the budget, then
	// TPC-H-like analytics forever.
	node := cluster.CommodityNode()
	mkTarget := func() tune.Target {
		d, err := workload.NewDrift("oltp-olap-shift", false,
			workload.Phase{Name: "oltp", Target: dbms.New(node, workload.OLTP(64, scale), o.Seed), Runs: shiftAt},
			workload.Phase{Name: "olap", Target: dbms.New(node, workload.TPCHLike(scale*2), o.Seed), Runs: shiftAt},
		)
		if err != nil {
			panic(fmt.Sprintf("bench: building drift target: %v", err))
		}
		return d
	}
	variants := []struct {
		approach string
		tuner    tune.Tuner
	}{
		{"iTuned (no detection)", experiment.NewITuned(o.Seed)},
		{"iTuned + drift detection", tune.DriftDetectTuner(experiment.NewITuned(o.Seed))},
	}
	eng := o.engine()
	runs := make([]*engine.Run, len(variants))
	for i, v := range variants {
		runs[i] = eng.Submit(engine.Job{
			Name:   v.approach,
			Tuner:  v.tuner,
			Target: mkTarget(),
			Budget: b,
		})
	}
	// A fresh pure-OLAP target scores deployed configs against the ending
	// workload; one evaluation per distinct config, cached, so the scoring
	// pass is deterministic and cheap.
	evalEnd := dbms.New(node, workload.TPCHLike(scale*2), o.Seed+999)
	cache := map[string]float64{}
	evalCfg := func(cfg tune.Config) float64 {
		k := cfg.String()
		if v, ok := cache[k]; ok {
			return v
		}
		v := evalEnd.Run(cfg).Objective()
		cache[k] = v
		return v
	}

	var baselineRegret float64
	for i, r := range runs {
		res, err := r.Wait(context.Background())
		if err != nil {
			panic(fmt.Sprintf("bench: drift session %s failed: %v", variants[i].approach, err))
		}
		detections := r.Progress().DriftDetections
		// Re-anchor positions come from the event stream: DriftDetected
		// carries the trial count at the moment the incumbent was discarded.
		var anchors []int
		for _, ev := range r.History() {
			if ev.Kind == tune.DriftDetected {
				anchors = append(anchors, ev.Trial)
			}
		}
		regret, final := deployedRegret(res.Trials, anchors, int(shiftAt), evalCfg)
		reduction := "—"
		if i == 0 {
			baselineRegret = regret
		} else if baselineRegret > 0 {
			reduction = fmt.Sprintf("%.0f%%", 100*(baselineRegret-regret)/baselineRegret)
		}
		t.AddRow(variants[i].approach,
			fmt.Sprintf("%d", len(res.Trials)),
			fmt.Sprintf("%d", detections),
			fmtSeconds(final),
			fmtSeconds(regret), reduction)
	}
	t.Note("budget %d trials at seed %d; workload shifts oltp→olap at trial %d; regret = per-step runtime of the deployed incumbent on the ENDING workload, averaged over post-shift steps",
		b.Trials, o.Seed, shiftAt)
	t.Note("detection = windowed incumbent-regression test (window %d, factor %.1f); a detection re-anchors the incumbent and restarts the search with the remaining budget",
		tune.DriftWindow, tune.DriftFactor)
	return t
}

// deployedRegret replays the session's incumbent trajectory — best observed
// objective since the last re-anchor, with the previously deployed config
// held across a re-anchor until a post-anchor trial lands (deployment
// continuity: an operator cannot run "nothing") — and scores the deployed
// config at every post-shift step on the ending workload via eval. It
// returns the per-step mean and the final deployed config's score.
func deployedRegret(trials []tune.Trial, anchors []int, shiftAt int, eval func(tune.Config) float64) (perStep, final float64) {
	best := math.Inf(1)
	var deployed tune.Config
	haveDeployed := false
	var sum float64
	steps, anchorIdx := 0, 0
	for _, tr := range trials {
		for anchorIdx < len(anchors) && tr.N > anchors[anchorIdx] {
			best = math.Inf(1) // incumbent discarded; deployed config persists
			anchorIdx++
		}
		if obj := tr.Result.Objective(); obj < best {
			best, deployed, haveDeployed = obj, tr.Config, true
		}
		if tr.N > shiftAt && haveDeployed {
			sum += eval(deployed)
			steps++
		}
	}
	if steps > 0 {
		perStep = sum / float64(steps)
	}
	if haveDeployed {
		final = eval(deployed)
	}
	return perStep, final
}
