package bench

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/tune"
)

// Drift measures tuning under workload drift — the scenario every static
// tuner in the survey silently assumes away. The target is the registered
// dbms "oltp-olap-shift" workload: an OLTP transaction mix for the first
// driftShiftAt runs, then TPC-H-style analytics (workload.Drift keyed by
// global run index, so the shift point is identical at any parallelism).
// Baseline iTuned keeps the incumbent it converged to on the pre-shift
// workload; drift-detecting iTuned (Spec.DriftDetect) notices the windowed
// incumbent regression, re-anchors the session, and restarts its search
// against the post-shift landscape.
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
func Drift(o Options) (*Table, error) {
	t := &Table{
		Title: "E12 (drift): workload shift mid-session — static tuning vs drift detection (dbms oltp→olap)",
		Columns: []string{
			"approach", "trials", "detections", "final config on olap",
			"deployed regret/step", "regret reduction",
		},
	}
	b := o.budget()
	if b.Trials < 3*driftShiftAt {
		// Drift detection pays a fixed reaction cost (detection latency + a
		// fresh design phase), so the comparison needs post-shift runway for
		// the recovered search to amortize it: the shift lands at most a
		// third of the way in. A shift in the final trials is unrecoverable
		// for any detector and measures nothing.
		b.Trials = 3 * driftShiftAt
	}
	// Full scale is the registry's 4 GB OLTP → 10 GB analytics; fast runs
	// both phases at 2 GB.
	topts := repro.TargetOptions{ScaleGB: o.scaleGB(0, 2)}
	variants := []struct {
		approach string
		detect   bool
	}{
		{"iTuned (no detection)", false},
		{"iTuned + drift detection", true},
	}
	var cells []cell
	for _, v := range variants {
		cells = append(cells, cell{spec: repro.Spec{
			System: "dbms", Workload: "oltp-olap-shift", Tuner: "ituned", Seed: o.Seed, Budget: b,
			Target: topts, DriftDetect: v.detect,
		}})
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	// A fresh pure-OLAP target scores deployed configs against the ending
	// workload; one evaluation per distinct config, cached, so the scoring
	// pass is deterministic and cheap.
	evalEnd, err := repro.NewTarget("dbms", "tpch", o.Seed+999, topts)
	if err != nil {
		return nil, err
	}
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
	for i, s := range sessions {
		// Re-anchor positions come from the event stream: DriftDetected
		// carries the trial count at the moment the incumbent was discarded.
		var anchors []int
		for _, ev := range s.run.History() {
			if ev.Kind == tune.DriftDetected {
				anchors = append(anchors, ev.Trial)
			}
		}
		regret, final := deployedRegret(s.result.Trials, anchors, driftShiftAt, evalCfg)
		reduction := "—"
		if i == 0 {
			baselineRegret = regret
		} else if baselineRegret > 0 {
			reduction = fmt.Sprintf("%.0f%%", 100*(baselineRegret-regret)/baselineRegret)
		}
		t.AddRow(variants[i].approach,
			fmt.Sprintf("%d", len(s.result.Trials)),
			fmt.Sprintf("%d", s.run.Progress().DriftDetections),
			fmtSeconds(final),
			fmtSeconds(regret), reduction)
	}
	t.Note("budget %d trials at seed %d; workload shifts oltp→olap at trial %d; regret = per-step runtime of the deployed incumbent on the ENDING workload, averaged over post-shift steps",
		b.Trials, o.Seed, driftShiftAt)
	t.Note("detection = windowed incumbent-regression test (window %d, factor %.1f); a detection re-anchors the incumbent and restarts the search with the remaining budget",
		tune.DriftWindow, tune.DriftFactor)
	return t, nil
}

// driftShiftAt is the run after which the registered dbms "oltp-olap-shift"
// workload turns from OLTP to analytics.
const driftShiftAt = 15

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
