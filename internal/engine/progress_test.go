package engine

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"iter"
	"reflect"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/workload"
)

// foldSession is one recorded event stream, SessionDone included.
type foldSession struct {
	name   string
	events []tune.Event
}

// foldSessions records the streams of three session shapes that exercise
// every counter the fold keeps: rungs and prunes, Pareto points and guardrail
// violations, a drift re-anchor.
func foldSessions(t *testing.T) []foldSession {
	const seed = 17
	var out []foldSession
	record := func(name string, job Job) {
		job.Name = name // DefaultEventBuffer outlasts these sessions: History is the whole stream
		run := New(Options{}).Submit(job)
		if _, err := run.Wait(nil); err != nil {
			t.Fatal(err)
		}
		out = append(out, foldSession{name, run.History()})
	}
	mf, err := tune.NewMultiFidelity(&experiment.Random{Seed: seed}, tune.StrategyHyperband, seed)
	if err != nil {
		t.Fatal(err)
	}
	record("hyperband(random)", Job{Tuner: mf, Target: dbmsTarget(seed), Budget: tune.Budget{Trials: 30}})
	var subs []tune.BatchTuner
	for i := range tune.DefaultParetoWeights {
		subs = append(subs, experiment.NewITuned(seed+int64(i)))
	}
	mo, err := tune.MultiObjectiveTuner(subs, tune.DefaultParetoWeights)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := tune.GuardrailTuner(mo, 150)
	if err != nil {
		t.Fatal(err)
	}
	record("ituned+pareto+guardrail", Job{Tuner: guarded, Target: dbmsTarget(seed), Budget: tune.Budget{Trials: 16}})
	node := cluster.CommodityNode()
	shift, err := workload.NewDrift("oltp-olap-shift", false,
		workload.Phase{Name: "oltp", Target: dbms.New(node, workload.OLTP(64, 2), seed), Runs: 7},
		workload.Phase{Name: "olap", Target: dbms.New(node, workload.TPCHLike(4), seed), Runs: 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	record("ituned+drift", Job{Tuner: tune.DriftDetectTuner(experiment.NewITuned(seed)), Target: shift, Budget: tune.Budget{Trials: 20}})
	return out
}

// received is everything a subscriber attaching to r now is sent before it
// would wait for the next event.
func received(r *Run) []tune.Event {
	_, evicted := r.Summary()
	n := len(r.History())
	if evicted {
		n++ // the stream_checkpoint
	}
	next, stop := iter.Pull(r.Events())
	defer stop()
	out := make([]tune.Event, n)
	for i := range out {
		out[i], _ = next()
	}
	return out
}

// TestOneFold: after every event of a session, at every ring size, four
// folds agree — the run's Progress, a fresh StreamSummary over every event so
// far, the evicted Summary folded on through History, and a subscriber's fold
// of what it is sent (stream_checkpoint first when the ring has evicted, or
// stream_lagged when it lapped the subscriber). The runs are fed the recorded
// events directly, so every step is deterministic; the digests pin the
// stream_checkpoint and stream_lagged JSON to the bytes recorded before the
// run's counters and evicted-prefix fold became one tune.StreamSummary.
func TestOneFold(t *testing.T) {
	want := map[string]string{
		"hyperband(random)/1":       "3c95d59afd3b1d8f2b4e82a42f27a7a8e5b1d8d5e959189ce14fcaf1a846d9ce",
		"hyperband(random)/7":       "8e25c759b35194f4339938aa902f3618fa1f75f3d58a95cce94a1cfd8c7a9704",
		"hyperband(random)/64":      "eaf2b8647e7f253902975dd182aef53d9e4b93ceb679e19ea6e9021971de8732",
		"ituned+pareto+guardrail/1": "e7eb667377e94009cef1c3b23f1f1b59a40e0816c1c74d82be9daf5c6d11460b",
		"ituned+pareto+guardrail/7": "50041e30d139b752555e3b6037f8d75d23ec7313e648c2b41ae386ff2bbb02bc",
		"ituned+drift/1":            "e652a460efc0a0439a563e5fe2b54a7a746f8e164e394b3d67e2cbbe60925786",
		"ituned+drift/7":            "07ee3245295a7db0946576109a3d383a86dd400f1df6ffb6f41d013e24506132",
		// Every other stream fits its ring: no synthetic frame is ever sent.
	}
	for _, s := range foldSessions(t) {
		for _, buffer := range []int{1, 7, 64, -1} {
			name := fmt.Sprintf("%s/%d", s.name, buffer)
			// -1 leaves the ring to the engine: DefaultEventBuffer, which
			// every one of these streams fits.
			bufCap := buffer
			if bufCap < 0 {
				bufCap = DefaultEventBuffer
			}
			t.Run(name, func(t *testing.T) {
				agree := func(r *Run, label string, other tune.StreamSummary) {
					t.Helper()
					if got := r.Progress(); !reflect.DeepEqual(got, other.Rendered()) {
						t.Fatalf("%s:\n  Progress: %+v\n  %s: %+v", name, got, label, other.Rendered())
					}
				}
				h := sha256.New()
				r := &Run{bufCap: bufCap}
				var fresh tune.StreamSummary
				for i, ev := range s.events {
					r.observe(ev)
					fresh.Add(ev)
					agree(r, fmt.Sprintf("fresh fold after event %d", i+1), fresh)
					tail, _ := r.Summary()
					for _, ev := range r.History() {
						tail.Add(ev)
					}
					agree(r, fmt.Sprintf("Summary+History after event %d", i+1), tail)
					var sub tune.StreamSummary
					for _, ev := range received(r) {
						if ev.Kind == tune.StreamCheckpoint {
							data, _ := json.Marshal(ev)
							h.Write(append(data, '\n'))
						}
						sub.Add(ev)
					}
					agree(r, fmt.Sprintf("subscriber after event %d", i+1), sub)
				}

				// A subscriber that read event 1 and then fell behind the whole
				// rest of the session at once is lapped exactly once.
				lag := &Run{bufCap: bufCap}
				lag.observe(s.events[0])
				next, stop := iter.Pull(lag.Events())
				defer stop()
				var folded tune.StreamSummary
				ev, _ := next()
				folded.Add(ev)
				lag.mu.Lock()
				for _, ev := range s.events[1:] {
					lag.appendLocked(ev)
				}
				lag.mu.Unlock()
				if ev, _ := next(); ev.Kind == tune.StreamLagged {
					data, _ := json.Marshal(ev)
					h.Write(data)
					folded.Add(ev)
					for range lag.History() {
						ev, _ := next()
						folded.Add(ev)
					}
					agree(lag, "lapped subscriber", folded)
				}

				w, ok := want[name]
				if !ok {
					w = fmt.Sprintf("%x", sha256.Sum256(nil))
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != w {
					t.Errorf("%s: synthetic frames digest %s, want %s", name, got, w)
				}
			})
		}
	}
}

// TestProgressTracksLiveRun: a submitted run's Progress is the fold of its
// stream — the status counts every endpoint and experiment reads.
func TestProgressTracksLiveRun(t *testing.T) {
	run := New(Options{}).Submit(Job{
		Name: "live", Tuner: hyperbandITuned(t, 7), Target: fidelityDBMS(7),
		Budget: tune.Budget{Trials: 24}, EventBuffer: 5,
	})
	var sub tune.StreamSummary
	for ev := range run.Events() {
		sub.Add(ev)
	}
	if p := run.Progress(); !reflect.DeepEqual(p, sub.Rendered()) || p.TrialsDone != 24 || p.BestResult == nil {
		t.Fatalf("Progress %+v, subscriber fold %+v", p, sub.Rendered())
	}
}

// Summary reports the compacted fold of every event evicted from the ring
// so far. ok is false while nothing has been evicted (the retained events
// are the full history).
func (r *Run) Summary() (s tune.StreamSummary, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summary.Rendered(), r.summary.CoveredThrough > 0
}
