package main

import (
	"context"
	"testing"
)

// TestDecoratorsAreTransparent runs every spec shape of the four workloads
// at a tiny budget twice — once as daemon.startSession would build the job,
// once wrapped in the timing decorators — and requires the two event streams
// to hash identically. That holds only if the decorators forward every
// interface the engine and the tuners probe for (ConcurrentTarget,
// FidelityTarget, Describer, SessionAware, Recommender, …), so the traced
// pass times the engine's real path and not a degraded one.
func TestDecoratorsAreTransparent(t *testing.T) {
	ctx := context.Background()
	const seed = 7
	for _, w := range workloads {
		repoDir := ""
		if w.repo {
			repoDir = t.TempDir()
			if _, err := buildCorpus(ctx, repoDir, seed, 60); err != nil {
				t.Fatal(err)
			}
		}
		env, err := newInproc(w, repoDir)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{"session": true, "engine.run": true, "sysmodel.run": true,
			"tune.new_proposer": true, "tune.propose": true, "tune.observe": true}
		if w.repo {
			want["store.warm_configs"], want["store.checkpoint"], want["store.append"] = true, true, true
		}
		for i := 0; i < w.shapes; i++ {
			spec := w.spec(seed, i)
			if spec.Budget.Trials > 27 {
				spec.Budget.Trials = 27
			}
			plain := env.runSpec(ctx, nil, spec, i)
			tr := newTracer()
			traced := env.runSpec(ctx, tr, spec, i)
			if plain.err != nil || traced.err != nil {
				t.Fatalf("%s shape %d: plain %v, decorated %v", w.name, i, plain.err, traced.err)
			}
			if plain.events == 0 || plain.events != traced.events || plain.digest != traced.digest {
				t.Errorf("%s shape %d (%s): decorated stream differs: %d events %x vs %d events %x",
					w.name, i, spec.Name(), traced.events, traced.digest[:6], plain.events, plain.digest[:6])
			}
			seen := map[string]bool{}
			for _, s := range tr.spans {
				seen[s.Name] = true
				if s.End < s.Start {
					t.Errorf("%s shape %d: span %s ends before it starts", w.name, i, s.Name)
				}
			}
			if w.evaluators > 0 && !seen["dist.evaluate"] {
				// Local and remote slots race for one queue; a tiny rung
				// may be drained locally, so this is not a failure.
				t.Logf("%s shape %d: no trial happened to be leased to the fleet", w.name, i)
			}
			for name := range want {
				if !seen[name] {
					t.Errorf("%s shape %d (%s): the decorated run recorded no %s span", w.name, i, spec.Name(), name)
				}
			}
		}
		env.close()
	}
}
