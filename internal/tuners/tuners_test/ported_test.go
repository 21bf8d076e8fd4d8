package tuners_test

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"testing"

	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/tuners/simulation"
)

// The four tuners below kept their sequential bodies when they moved onto
// tune.Drive through tune.Sequential; the digests are of the same sessions —
// every trial's configuration and result, and the final incumbent — taken
// with this test body at the last commit where each tuner still owned its
// evaluation loop. A body that drifts by one rng draw, one run, or one
// incumbent comparison changes its digest.
func TestPortedTunersUnchanged(t *testing.T) {
	targets := []func(seed int64) tune.Target{
		func(seed int64) tune.Target { return dbmsTarget(seed) },
		func(seed int64) tune.Target { return sparkTarget(seed) },
		func(seed int64) tune.Target { return hadoopTarget(seed) },
	}
	for _, row := range []struct {
		name string
		want uint64
		mk   func(seed int64) tune.Tuner
	}{
		{"rrs", 0x7799a6fc80e13ae9, func(seed int64) tune.Tuner { return &experiment.RRS{Seed: seed} }},
		{"sard", 0x2f4c9b1cc8b60ec1, func(seed int64) tune.Tuner { return experiment.NewSARD(seed) }},
		{"adaptive-sampling", 0x9f4801cc14e76e2e, func(seed int64) tune.Tuner { return experiment.NewAdaptiveSampling(seed) }},
		{"addm", 0xb4adaf85a3ed3b7b, func(int64) tune.Tuner { return simulation.NewADDM() }},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := fnv.New64a()
			for _, target := range targets {
				for seed := int64(1); seed <= 4; seed++ {
					res, err := row.mk(seed).Tune(context.Background(), target(seed), tune.Budget{Trials: 45})
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(struct {
						Trials []tune.Trial
						Best   tune.Config
						Sim    float64
					}{res.Trials, res.Best, res.SimTimeUsed})
					if err != nil {
						t.Fatal(err)
					}
					h.Write(data)
				}
			}
			if got := h.Sum64(); got != row.want {
				t.Errorf("digest of 12 sessions = %#x, want %#x: a trial changed", got, row.want)
			}
		})
	}
}
