package simulation

import (
	"sort"

	"repro/internal/tune"
)

// ADDM reproduces Oracle's diagnostic monitor: each iteration runs the
// system once, attributes the elapsed time to wait components from the run's
// metrics (a miniature DB-time DAG), picks the dominant component, and
// applies its targeted remedy. Diagnosis is cheap and explainable — the
// strength the paper credits to the approach — but each remedy is a local
// rule, so convergence stalls once no single component dominates.
type ADDM struct{ tune.SequentialBody }

// NewADDM returns an ADDM tuner.
func NewADDM() *ADDM { return &ADDM{} }

// Name implements tune.Tuner.
func (t *ADDM) Name() string { return "simulation/addm" }

// finding is one diagnosed bottleneck with its remedy.
type finding struct {
	Component string
	Seconds   float64
	Apply     func(cfg tune.Config) tune.Config
}

// diagnose builds the ranked findings list from run metrics — the ADDM
// "top findings" report.
func diagnose(space *tune.Space, m map[string]float64) []finding {
	has := func(p string) bool { _, ok := space.Param(p); return ok }
	scale := func(p string, f float64) func(tune.Config) tune.Config {
		return func(cfg tune.Config) tune.Config {
			if !has(p) {
				return cfg
			}
			return cfg.WithNative(p, cfg.Native(p)*f)
		}
	}
	var fs []finding
	ioWait := m["io_time_s"]
	cpuWait := m["cpu_time_s"]
	lockWait := m["lock_wait_s"]
	commit := m["commit_stall_s"]
	swap := (m["swap_factor"] - 1) * (ioWait + cpuWait)
	ckpt := m["checkpoint_io_mbps"] // proxy

	if swap > 0 {
		fs = append(fs, finding{"memory over-subscription (swapping)", swap, func(cfg tune.Config) tune.Config {
			cfg = scale("buffer_pool_mb", 0.6)(cfg)
			return scale("work_mem_mb", 0.5)(cfg)
		}})
	}
	if ioWait > 0 {
		if m["temp_io_mb"] > 0.2*(m["seq_read_mb"]+m["rand_read_mb"]+1) {
			fs = append(fs, finding{"temp spill I/O (work memory too small)",
				ioWait * 0.5, scale("work_mem_mb", 2.5)})
		}
		if m["buffer_hit_ratio"] < 0.9 {
			fs = append(fs, finding{"buffer cache misses",
				ioWait * (1 - m["buffer_hit_ratio"]), scale("buffer_pool_mb", 2.0)})
		}
		if m["rand_read_mb"] > m["seq_read_mb"] {
			fs = append(fs, finding{"random I/O bound", ioWait * 0.3, func(cfg tune.Config) tune.Config {
				cfg = scale("effective_io_concurrency", 2)(cfg)
				if has("random_page_cost") {
					cfg = cfg.WithNative("random_page_cost", cfg.Native("random_page_cost")*1.5)
				}
				return cfg
			}})
		}
	}
	if lockWait > 0.05*(cpuWait+ioWait+1) {
		fs = append(fs, finding{"lock contention", lockWait, func(cfg tune.Config) tune.Config {
			cfg = scale("deadlock_timeout_ms", 0.4)(cfg)
			return scale("max_connections", 0.7)(cfg)
		}})
	}
	if commit > 0 {
		fs = append(fs, finding{"commit stalls (WAL buffer)", commit, scale("wal_buffer_mb", 4)})
	}
	if ckpt > 5 {
		fs = append(fs, finding{"checkpoint interference", ckpt * 0.1, scale("checkpoint_interval_s", 2)})
	}
	if cpuWait > ioWait*2 {
		fs = append(fs, finding{"CPU bound", cpuWait * 0.3, func(cfg tune.Config) tune.Config {
			cfg = scale("max_parallel_workers", 2)(cfg)
			if has("compression") && cfg.Bool("compression") {
				cfg = cfg.WithNative("compression", 0)
			}
			return cfg
		}})
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Seconds > fs[j].Seconds })
	return fs
}

// NewProposer implements tune.BatchTuner: iterative run → diagnose → remedy
// as one sequential body — every step needs the metrics of the run before
// it. A remedy that regresses performance is rolled back and the next
// finding is tried.
func (t *ADDM) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	space := target.Space()
	return tune.Sequential(func(run tune.RunFunc) {
		cur := space.Default()
		res, ok := run(cur)
		if !ok {
			return
		}
		curTime := res.Objective()
		skip := 0 // findings to skip after a regression
		for {
			fs := diagnose(space, res.Metrics)
			if len(fs) == 0 || skip >= len(fs) {
				return
			}
			cand := fs[skip].Apply(cur)
			if cand.Distance(cur) < 1e-9 {
				skip++
				continue
			}
			candRes, ok := run(cand)
			if !ok {
				return
			}
			if candRes.Objective() < curTime {
				cur, res, curTime = cand, candRes, candRes.Objective()
				skip = 0
			} else {
				skip++
			}
		}
	}), nil
}

var _ tune.BatchTuner = (*ADDM)(nil)
