package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/tuners/simulation"
	"repro/internal/workload"
)

// pipelineRow is one session shape of the equivalence table. mk builds a
// fresh (tuner, target) pair — every run owns its own, so nothing but the
// checkpoint replay is ever carried across a kill. want names an event kind
// the row must emit, so a row cannot pass by silently not exercising its
// feature.
type pipelineRow struct {
	name   string
	trials int
	want   tune.EventKind
	mk     func(t *testing.T) (tune.Tuner, tune.Target)
}

func pipelineRows() []pipelineRow {
	const seed = 17
	plainTarget := func() tune.Target { return dbmsTarget(seed) }
	fidelity := func(inner tune.BatchTuner, strategy string) func(*testing.T) (tune.Tuner, tune.Target) {
		return func(t *testing.T) (tune.Tuner, tune.Target) {
			mf, err := tune.NewMultiFidelity(inner, strategy, seed)
			if err != nil {
				t.Fatal(err)
			}
			return mf, plainTarget()
		}
	}
	shiftTarget := func(t *testing.T) tune.Target {
		node := cluster.CommodityNode()
		d, err := workload.NewDrift("oltp-olap-shift", false,
			workload.Phase{Name: "oltp", Target: dbms.New(node, workload.OLTP(64, 2), seed), Runs: 7},
			workload.Phase{Name: "olap", Target: dbms.New(node, workload.TPCHLike(4), seed), Runs: 7},
		)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return []pipelineRow{
		{name: "ituned", trials: 14, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) { return experiment.NewITuned(seed), plainTarget() }},
		// The model lifecycle (tune.SurrogateModel): the session crosses exact →
		// sparse at n = 22, then alternates append rounds with tail-triggered
		// rebuilds (a quarter of 16 inducing points = one batch of four), so
		// half the resume boundaries cut inside a tail and the resumed run has
		// to arrive at the same size-at-last-Fit by replay alone.
		{name: "ituned(sparse)", trials: 60, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) {
				it := experiment.NewITuned(seed)
				it.Surrogate = &tune.SurrogateConfig{SparseAbove: 20, Inducing: 16}
				return it, plainTarget()
			}},
		{name: "random", trials: 12, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) { return &experiment.Random{Seed: seed}, plainTarget() }},
		{name: "hyperband(random)", trials: 30, want: tune.TrialPruned,
			mk: func(t *testing.T) (tune.Tuner, tune.Target) {
				return fidelity(&experiment.Random{Seed: seed}, tune.StrategyHyperband)(t)
			}},
		{name: "halving(ituned)", trials: 20, want: tune.TrialPruned,
			mk: func(t *testing.T) (tune.Tuner, tune.Target) {
				return fidelity(experiment.NewITuned(seed), tune.StrategyHalving)(t)
			}},
		{name: "warm-start", trials: 12, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) {
				target := plainTarget()
				rng := rand.New(rand.NewSource(seed))
				seeds := []tune.Config{target.Space().Random(rng), target.Space().Random(rng), target.Space().Random(rng)}
				return tune.WarmStartTuner(experiment.NewITuned(seed), seeds), target
			}},
		{name: "drift_detect", trials: 20, want: tune.DriftDetected,
			mk: func(t *testing.T) (tune.Tuner, tune.Target) {
				return tune.DriftDetectTuner(experiment.NewITuned(seed)), shiftTarget(t)
			}},
		{name: "guardrail", trials: 14, want: tune.GuardrailViolation,
			mk: func(t *testing.T) (tune.Tuner, tune.Target) {
				gt, err := tune.GuardrailTuner(experiment.NewITuned(seed), 150)
				if err != nil {
					t.Fatal(err)
				}
				return gt, plainTarget()
			}},
		{name: "pareto", trials: 16, want: tune.ParetoIncumbent,
			mk: func(t *testing.T) (tune.Tuner, tune.Target) {
				var subs []tune.BatchTuner
				for i := range tune.DefaultParetoWeights {
					subs = append(subs, experiment.NewITuned(seed+int64(i)))
				}
				mo, err := tune.MultiObjectiveTuner(subs, tune.DefaultParetoWeights)
				if err != nil {
					t.Fatal(err)
				}
				return mo, plainTarget()
			}},
		// Sequential bodies (tune.Sequential): one proposal per batch, so every
		// trial is a boundary a kill can land on, and a resume re-runs the body
		// from its first line against the replayed history.
		{name: "rrs", trials: 12, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) { return &experiment.RRS{Seed: seed}, plainTarget() }},
		{name: "sard", trials: 12, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) { return experiment.NewSARD(seed), plainTarget() }},
		{name: "adaptive-sampling", trials: 12, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) { return experiment.NewAdaptiveSampling(seed), plainTarget() }},
		{name: "addm", trials: 8, want: tune.IncumbentImproved,
			mk: func(*testing.T) (tune.Tuner, tune.Target) { return simulation.NewADDM(), plainTarget() }},
		// A detection swaps the sequential body mid-session: the resumed run
		// has to release the first coroutine and start the second at the same
		// trial.
		{name: "drift_detect(rrs)", trials: 24, want: tune.DriftDetected,
			mk: func(t *testing.T) (tune.Tuner, tune.Target) {
				return tune.DriftDetectTuner(&experiment.RRS{Seed: seed}), shiftTarget(t)
			}},
	}
}

// stubRemote is a RemoteBackend evaluating on its own same-seed instance of
// the target — the in-process stand-in for an evaluator process.
type stubRemote struct {
	caps  tune.Capabilities
	slots int
}

func (b stubRemote) Slots() int { return b.slots }
func (b stubRemote) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	return b.caps.Eval(ctx, idx, tune.Candidate{Config: cfg, Fidelity: f})
}

// marshalStream renders events one JSON document per line.
func marshalStream(t *testing.T, events []tune.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// sameStream fails with the first differing line.
func sameStream(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("%s: event %d differs:\n  want: %s\n  got:  %s", label, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: stream has %d events, want %d", label, len(gl)-1, len(wl)-1)
}

// TestPipelineEquivalence pins the single drive loop: every session shape
// produces byte-identical event JSON and an equal TuningResult through every
// entry point — the inline drive loop without an engine (driveInline), the
// engine at 1 worker, at 4 workers, and at 1 worker plus 2 remote slots —
// both uninterrupted and killed and resumed at every batch/rung boundary.
func TestPipelineEquivalence(t *testing.T) {
	for _, row := range pipelineRows() {
		t.Run(row.name, func(t *testing.T) {
			b := tune.Budget{Trials: row.trials}

			// Entry 0, the inline drive loop. It has no run handle, so the
			// monitor numbers the events the way a run does, and there is no
			// SessionDone.
			var seqEvents []tune.Event
			tuner, target := row.mk(t)
			ctx := tune.WithMonitor(context.Background(), &tune.Monitor{OnEvent: func(ev tune.Event) {
				ev.Seq = len(seqEvents) + 1
				seqEvents = append(seqEvents, ev)
			}})
			seqRes, err := driveInline(ctx, tuner, target, b)
			if err != nil {
				t.Fatal(err)
			}
			wantStream := marshalStream(t, seqEvents)
			wantRes, _ := json.Marshal(seqRes)
			exercised := false
			for _, ev := range seqEvents {
				exercised = exercised || ev.Kind == row.want
			}
			if !exercised {
				t.Fatalf("row never emitted %s; it does not exercise its feature", row.want)
			}

			for _, entry := range []struct {
				name            string
				parallel, slots int
			}{{"workers=1", 1, 0}, {"workers=4", 4, 0}, {"workers=1+remote=2", 1, 2}} {
				t.Run(entry.name, func(t *testing.T) {
					job := func() Job {
						tuner, target := row.mk(t)
						j := Job{Name: row.name, Tuner: tuner, Target: target, Budget: b, Parallel: entry.parallel, CheckpointEvery: 1}
						if entry.slots > 0 {
							_, mirror := row.mk(t)
							j.Remote = stubRemote{caps: tune.Resolve(mirror), slots: entry.slots}
						}
						return j
					}
					check := func(label string, run *Run) {
						t.Helper()
						events := collectEvents(t, run)
						res, err := run.Wait(nil)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if last := events[len(events)-1]; last.Kind != tune.SessionDone || last.Final != res {
							t.Fatalf("%s: stream does not close with SessionDone carrying the result: %+v", label, last)
						}
						sameStream(t, label, wantStream, marshalStream(t, events[:len(events)-1]))
						if got, _ := json.Marshal(res); !bytes.Equal(wantRes, got) {
							t.Fatalf("%s: result differs:\n  want: %s\n  got:  %s", label, wantRes, got)
						}
					}

					// Uninterrupted, counting the boundaries a kill can land on.
					boundaries := 0
					ref := job()
					ref.Checkpoint = func(tune.CheckpointState) { boundaries++ }
					check("uninterrupted", New(Options{Workers: 1}).Submit(ref))
					if boundaries == 0 {
						t.Fatal("no checkpoint was offered; nothing to resume from")
					}

					// Killed at boundary k (the run is cancelled from inside its
					// k-th checkpoint), then resumed by a run that shares nothing
					// with the victim but that checkpoint.
					for k := 1; k <= boundaries; k++ {
						var replay tune.Replay
						seen := 0
						kctx, kill := context.WithCancel(context.Background())
						victim := job()
						victim.Checkpoint = func(cs tune.CheckpointState) {
							if seen++; seen == k {
								replay = cs.Replay()
								kill()
							}
						}
						if _, err := New(Options{Workers: 1}).SubmitContext(kctx, victim).Wait(nil); !errors.Is(err, context.Canceled) {
							t.Fatalf("victim killed at boundary %d finished with %v, want context.Canceled", k, err)
						}
						kill()
						resumed := job()
						resumed.Replay = &replay
						check(fmt.Sprintf("killed at boundary %d/%d (%d trials)", k, boundaries, len(replay.Trials)),
							New(Options{Workers: 1}).Submit(resumed))
					}
				})
			}
		})
	}
}

func TestPipelineEquivalenceRace5(t *testing.T) { TestPipelineEquivalence(t) }
