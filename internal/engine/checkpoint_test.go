package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/workload"
)

// checkpointEvents drains a run and returns its marshaled event lines,
// skipping synthetic stream events (a resumed run's subscriber may attach
// at any point; the recorded sequence is what must match).
func marshaledEvents(t *testing.T, r *Run) [][]byte {
	t.Helper()
	var out [][]byte
	for _, ev := range collectEvents(t, r) {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestCheckpointResumeMatchesUninterrupted is the crash-resume acceptance
// guarantee on the single-fidelity drive path: a session resumed from a
// mid-run checkpoint — fresh engine, fresh target, fresh proposer, only the
// checkpoint's observation replay carried over — produces a byte-identical
// event stream and the identical final incumbent to the uninterrupted run.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	b := tune.Budget{Trials: 16}
	job := func(seed int64) Job {
		return Job{Name: "full", Tuner: experiment.NewITuned(seed), Target: dbmsTarget(seed), Budget: b}
	}

	// Reference: uninterrupted run, capturing every offered checkpoint.
	var cps []tune.CheckpointState
	ref := job(21)
	ref.Checkpoint = func(cs tune.CheckpointState) { cps = append(cps, cs) }
	ref.CheckpointEvery = 1
	refRun := New(Options{Workers: 1}).Submit(ref)
	refEvents := marshaledEvents(t, refRun)
	refRes, err := refRun.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints offered")
	}
	mid := cps[len(cps)/2]
	if len(mid.Trials) == 0 || len(mid.Trials) >= b.Trials {
		t.Fatalf("mid checkpoint has %d trials; need a genuinely partial one", len(mid.Trials))
	}
	if mid.RunsReserved == 0 {
		t.Error("checkpoint records no reserved runs")
	}

	// Resume: everything rebuilt from scratch except the replay.
	replay := mid.Replay()
	resumed := job(21)
	resumed.Replay = &replay
	resRun := New(Options{Workers: 1}).Submit(resumed)
	resEvents := marshaledEvents(t, resRun)
	resRes, err := resRun.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}

	sameResult(t, refRes, resRes, "uninterrupted vs resumed")
	if len(resEvents) != len(refEvents) {
		t.Fatalf("resumed stream has %d events, uninterrupted %d", len(resEvents), len(refEvents))
	}
	for i := range refEvents {
		if !bytes.Equal(refEvents[i], resEvents[i]) {
			t.Fatalf("event %d differs:\n  uninterrupted: %s\n  resumed:       %s",
				i, refEvents[i], resEvents[i])
		}
	}
}

// TestCheckpointResumeMatchesUninterruptedFidelity: the same guarantee on
// the multi-fidelity (Hyperband) path, where checkpoints land on rung
// boundaries and the replay must restore fidelities and prune decisions.
func TestCheckpointResumeMatchesUninterruptedFidelity(t *testing.T) {
	b := tune.Budget{Trials: 24}
	var cps []tune.CheckpointState
	ref := Job{
		Name: "fid", Tuner: hyperbandITuned(t, 13), Target: fidelityDBMS(13), Budget: b,
		Checkpoint: func(cs tune.CheckpointState) { cps = append(cps, cs) }, CheckpointEvery: 1,
	}
	refRun := New(Options{Workers: 1}).Submit(ref)
	refEvents := marshaledEvents(t, refRun)
	refRes, err := refRun.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("only %d checkpoints offered; fidelity sessions checkpoint each rung", len(cps))
	}
	mid := cps[len(cps)/2]
	if len(mid.Trials) == 0 || len(mid.Trials) >= len(refRes.Trials) {
		t.Fatalf("mid checkpoint has %d of %d trials; need a partial one", len(mid.Trials), len(refRes.Trials))
	}
	partial := false
	for _, tr := range mid.Trials {
		if !tr.Result.FullFidelity() {
			partial = true
		}
	}
	if !partial {
		t.Error("checkpoint carries no partial-fidelity trials; rung replay untested")
	}

	replay := mid.Replay()
	resumed := Job{Name: "fid", Tuner: hyperbandITuned(t, 13), Target: fidelityDBMS(13), Budget: b, Replay: &replay}
	resRun := New(Options{Workers: 1}).Submit(resumed)
	resEvents := marshaledEvents(t, resRun)
	resRes, err := resRun.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}

	rj, _ := json.Marshal(refRes)
	sj, _ := json.Marshal(resRes)
	if !bytes.Equal(rj, sj) {
		t.Fatalf("resumed fidelity result differs:\nuninterrupted: %s\nresumed:       %s", rj, sj)
	}
	if len(resEvents) != len(refEvents) {
		t.Fatalf("resumed stream has %d events, uninterrupted %d", len(resEvents), len(refEvents))
	}
	for i := range refEvents {
		if !bytes.Equal(refEvents[i], resEvents[i]) {
			t.Fatalf("event %d differs:\n  uninterrupted: %s\n  resumed:       %s",
				i, refEvents[i], resEvents[i])
		}
	}
}

// TestCheckpointResumeThroughDriftReanchor: the crash-resume guarantee on a
// drift-detecting session, resuming from a checkpoint taken AFTER the
// detector fired — so the replay has to rebuild the detector's window, the
// re-anchored incumbent, and the restarted proposer stack purely from the
// recorded observations. A byte-identical event stream (including the
// DriftDetected position) proves re-anchoring is a pure function of the
// observation sequence, not of wall-clock session history.
func TestCheckpointResumeThroughDriftReanchor(t *testing.T) {
	b := tune.Budget{Trials: 20}
	mkJob := func() Job {
		node := cluster.CommodityNode()
		d, err := workload.NewDrift("oltp-olap-shift", false,
			workload.Phase{Name: "oltp", Target: dbms.New(node, workload.OLTP(64, 2), 21), Runs: 7},
			workload.Phase{Name: "olap", Target: dbms.New(node, workload.TPCHLike(4), 21), Runs: 7},
		)
		if err != nil {
			t.Fatal(err)
		}
		return Job{
			Name:   "drift-resume",
			Tuner:  tune.DriftDetectTuner(experiment.NewITuned(21)),
			Target: d, Budget: b,
		}
	}

	var cps []tune.CheckpointState
	ref := mkJob()
	ref.Checkpoint = func(cs tune.CheckpointState) { cps = append(cps, cs) }
	ref.CheckpointEvery = 1
	refRun := New(Options{Workers: 1}).Submit(ref)
	refEvents := collectEvents(t, refRun)
	refRes, err := refRun.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}

	// The interesting checkpoint is one taken after the re-anchor: find the
	// first DriftDetected and the first checkpoint that already contains it.
	anchor := 0
	for _, ev := range refEvents {
		if ev.Kind == tune.DriftDetected {
			anchor = ev.Trial
			break
		}
	}
	if anchor == 0 {
		t.Fatal("no drift detection fired; the resume-through-reanchor case needs one")
	}
	var mid *tune.CheckpointState
	for i := range cps {
		if n := len(cps[i].Trials); n > anchor && n < b.Trials {
			mid = &cps[i]
			break
		}
	}
	if mid == nil {
		t.Fatalf("no partial checkpoint after the re-anchor at trial %d", anchor)
	}

	replay := mid.Replay()
	resumed := mkJob()
	resumed.Replay = &replay
	resRun := New(Options{Workers: 1}).Submit(resumed)
	resEvents := collectEvents(t, resRun)
	resRes, err := resRun.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}

	sameResult(t, refRes, resRes, "uninterrupted vs resumed through re-anchor")
	if len(resEvents) != len(refEvents) {
		t.Fatalf("resumed stream has %d events, uninterrupted %d", len(resEvents), len(refEvents))
	}
	for i := range refEvents {
		rj, err := json.Marshal(refEvents[i])
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(resEvents[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rj, sj) {
			t.Fatalf("event %d differs:\n  uninterrupted: %s\n  resumed:       %s", i, rj, sj)
		}
	}
}

// TestReplayDivergenceDetected: a replay whose recorded vectors do not
// match what the fresh proposer proposes (wrong seed — a corrupted or
// mismatched checkpoint) fails loudly instead of silently desyncing.
func TestReplayDivergenceDetected(t *testing.T) {
	var cps []tune.CheckpointState
	ref := Job{
		Name: "div", Tuner: experiment.NewITuned(3), Target: dbmsTarget(3),
		Budget:     tune.Budget{Trials: 8},
		Checkpoint: func(cs tune.CheckpointState) { cps = append(cps, cs) }, CheckpointEvery: 1,
	}
	if _, err := New(Options{Workers: 1}).Submit(ref).Wait(nil); err != nil {
		t.Fatal(err)
	}
	replay := cps[len(cps)/2].Replay()
	// Same job shape, different seed: the proposer's vectors diverge.
	bad := Job{Name: "div", Tuner: experiment.NewITuned(4), Target: dbmsTarget(4),
		Budget: tune.Budget{Trials: 8}, Replay: &replay}
	_, err := New(Options{Workers: 1}).Submit(bad).Wait(nil)
	if err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("divergent replay error = %v, want a replay divergence", err)
	}
}

// TestReplayRequiresRunIndexDeterminism: targets without run-index noise
// determinism (no tune.ConcurrentTarget) cannot be resumed — and are never
// offered checkpoints to resume from in the first place. Sequential tuners
// without an ask/tell form refuse non-empty replays too.
func TestReplayRequiresRunIndexDeterminism(t *testing.T) {
	replay := tune.Replay{Trials: []tune.ReplayTrial{{Vector: []float64{0.5}, Result: tune.Result{Time: 1}}}}
	job := Job{Name: "plain", Tuner: experiment.NewITuned(2), Target: newGatedTarget(),
		Budget: tune.Budget{Trials: 2}, Replay: &replay}
	_, err := New(Options{Workers: 1}).Submit(job).Wait(nil)
	if err == nil || !strings.Contains(err.Error(), "run-index determinism") {
		t.Fatalf("replay on a plain target = %v, want a run-index determinism error", err)
	}

	seq := Job{Name: "seq", Tuner: &seqTuner{n: 2}, Target: newGatedTarget(),
		Budget: tune.Budget{Trials: 2}, Replay: &replay}
	_, err = New(Options{Workers: 1}).Submit(seq).Wait(nil)
	if err == nil || !strings.Contains(err.Error(), "ask/tell") {
		t.Fatalf("replay with a sequential tuner = %v, want an ask/tell error", err)
	}

	offered := false
	plain := Job{Name: "plain", Tuner: experiment.NewITuned(2), Target: newGatedTarget(),
		Budget:     tune.Budget{Trials: 2},
		Checkpoint: func(tune.CheckpointState) { offered = true }, CheckpointEvery: 1}
	run := New(Options{Workers: 1}).Submit(plain)
	tgt := plain.Target.(*gatedTarget)
	for i := 0; i < 2; i++ {
		<-tgt.started
		tgt.release <- struct{}{}
	}
	if _, err := run.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if offered {
		t.Error("checkpoint offered for a target that cannot be resumed")
	}
}

// TestCheckpointEveryThrottles: CheckpointEvery N only offers a checkpoint
// once N new trials have accumulated since the last one.
func TestCheckpointEveryThrottles(t *testing.T) {
	count := func(every int) int {
		var n int
		job := Job{
			Name: "throttle", Tuner: experiment.NewITuned(6), Target: dbmsTarget(6),
			Budget:     tune.Budget{Trials: 12},
			Checkpoint: func(tune.CheckpointState) { n++ }, CheckpointEvery: every,
		}
		if _, err := New(Options{Workers: 1}).Submit(job).Wait(nil); err != nil {
			t.Fatal(err)
		}
		return n
	}
	fine, coarse := count(1), count(6)
	if fine == 0 || coarse == 0 {
		t.Fatalf("checkpoints: every=1 → %d, every=6 → %d; want both positive", fine, coarse)
	}
	if coarse >= fine {
		t.Errorf("every=6 offered %d checkpoints, every=1 offered %d; throttling had no effect", coarse, fine)
	}
}

// TestResumeFromEmptyReplay: a Replay with no trials (the admission-time
// checkpoint a daemon writes before the first batch) is a plain start.
func TestResumeFromEmptyReplay(t *testing.T) {
	b := tune.Budget{Trials: 6}
	plain := tuneJob(t, Job{Name: "plain", Tuner: experiment.NewITuned(15), Target: dbmsTarget(15), Budget: b})
	empty := tune.Replay{}
	job := Job{Name: "empty", Tuner: experiment.NewITuned(15), Target: dbmsTarget(15), Budget: b, Replay: &empty}
	res, err := New(Options{Workers: 1}).Submit(job).Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, plain, res, "plain vs empty-replay")
}
