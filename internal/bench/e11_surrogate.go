package bench

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/mathx/gp"
	"repro/internal/mathx/stat"
	"repro/internal/mathx/xrand"
)

// Surrogate measures the scalable-surrogate tier: the exact GP against the
// FITC sparse inducing-point GP and the random-Fourier-feature surrogate on
// identical DBMS training sets, at sizes straddling the exact-GP wall. Three
// numbers per row: wall time to fit, wall time to EI-score a candidate batch
// (the per-round planning cost), and agreement with the exact GP's posterior
// mean on a held-out grid — the accuracy each cheaper tier trades for its
// asymptotic win (exact O(n³) fit vs sparse O(nm²) vs RFF O(nD²)).
//
// Timings are min-of-3 wall clock so the table is stable on a loaded host;
// agreement is fully deterministic (fixed seed, fixed hyperparameters).
func Surrogate(o Options) (*Table, error) {
	t := &Table{
		Title: "E11 (surrogate): exact vs sparse-inducing vs RFF surrogate cost and agreement (dbms/tpch)",
		Columns: []string{
			"surrogate", "n", "fit", "score 256 candidates",
			"agreement (rmse/σy vs exact)", "fit speedup",
		},
	}
	ns := []int{200, 600}
	if o.Fast {
		ns = []int{120, 240}
	}
	target, err := repro.NewTarget("dbms", "tpch", o.Seed, repro.TargetOptions{ScaleGB: o.scaleGB(3, 2)})
	if err != nil {
		return nil, err
	}
	space := target.Space()
	rnd := xrand.New(o.Seed)

	// One shared training pool, sliced per row so every tier at a given n
	// sees the same data.
	nmax := ns[len(ns)-1]
	xs := make([][]float64, nmax)
	ys := make([]float64, nmax)
	for i := range xs {
		cfg := space.Random(rnd)
		xs[i] = cfg.Vector()
		ys[i] = target.Run(cfg).Time
	}
	cands := make([][]float64, 256)
	for i := range cands {
		cands[i] = space.Random(rnd).Vector()
	}

	scores := make([]float64, len(cands))
	for _, n := range ns {
		best := ys[0]
		for _, v := range ys[:n] {
			if v < best {
				best = v
			}
		}
		// Hyperparameters are searched once on the exact GP and shared by
		// every tier, and each timed Fit runs with optimize=false: rows then
		// compare pure factorization cost, and the agreement column isolates
		// the approximation error rather than grid-search luck.
		hyperRef := gp.New(gp.Matern52)
		if err := hyperRef.Fit(xs[:n], ys[:n], true); err != nil {
			return nil, fmt.Errorf("surrogate hyper search: %w", err)
		}
		hp := hyperRef.Hyper

		exact := gp.New(gp.Matern52)
		var fitErr error
		exactFit := minWall(3, func() {
			exact = gp.New(gp.Matern52)
			exact.Hyper = hp
			fitErr = exact.Fit(xs[:n], ys[:n], false)
		})
		refMu := make([]float64, len(cands))
		for i, c := range cands {
			refMu[i], _ = exact.Predict(c)
		}
		sigmaY := stat.Std(ys[:n])

		tiers := []struct {
			name string
			make func() gp.Surrogate
		}{
			{"exact GP", nil}, // reuses the reference fit above
			{fmt.Sprintf("sparse GP (m=%d)", gp.DefaultInducing), func() gp.Surrogate {
				s := gp.NewSparse(gp.Matern52)
				s.Hyper = hp
				return s
			}},
			{fmt.Sprintf("RFF (D=%d)", gp.DefaultFeatures), func() gp.Surrogate {
				r := gp.NewRFF(gp.Matern52, o.Seed)
				r.Hyper = hp
				return r
			}},
		}
		for _, tier := range tiers {
			var m gp.Surrogate = exact
			fit := exactFit
			if tier.name != "exact GP" { // the exact row is its own baseline
				fit = minWall(3, func() {
					m = tier.make()
					fitErr = m.Fit(xs[:n], ys[:n], false)
				})
			}
			if fitErr != nil {
				return nil, fmt.Errorf("%s fit at n=%d: %w", tier.name, n, fitErr)
			}
			score := minWall(3, func() {
				m.ScoreCandidates(cands, best, scores)
			})
			var sq float64
			for i, p := range cands {
				mu, _ := m.Predict(p)
				d := mu - refMu[i]
				sq += d * d
			}
			t.AddRow(tier.name, fmt.Sprintf("%d", n),
				fmtWall(fit), fmtWall(score),
				fmt.Sprintf("%.4f", math.Sqrt(sq/float64(len(cands)))/sigmaY),
				fmtSpeedup(speedup(exactFit.Seconds(), fit.Seconds())))
		}
	}
	t.Note("seed %d; hyperparameters searched once on the exact GP and shared (timed fits use optimize=false) so rows compare factorization cost; agreement = rmse of posterior means vs the exact GP over 256 held-out candidates, in training-σy units", o.Seed)
	t.Note("timings are min-of-3 wall clock; agreement and speedup trends are the stable columns")
	return t, nil
}

// minWall runs f reps times and returns the fastest wall-clock duration.
func minWall(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// fmtWall renders a wall-clock duration compactly in milliseconds.
func fmtWall(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
