package tune

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// eventTarget is a deterministic two-parameter stub whose runtime improves
// as "a" grows, so incumbent improvements are predictable.
type eventTarget struct{ space *Space }

func newEventTarget() *eventTarget {
	return &eventTarget{space: NewSpace(Float("a", 0, 1, 0.5))}
}

func (t *eventTarget) Name() string  { return "stub/events" }
func (t *eventTarget) Space() *Space { return t.space }
func (t *eventTarget) Run(cfg Config) Result {
	return Result{Time: 10 - cfg.Float("a"), Metrics: map[string]float64{"m": cfg.Float("a")}}
}

// listProposer proposes a fixed list of configurations, one batch.
type listProposer struct{ pending []Config }

func (p *listProposer) Propose(n int) []Config { return ProposeFixed(&p.pending, n) }
func (p *listProposer) Observe(Trial)          {}

// TestSessionEmitsOrderedEvents drives a proposer through the sequential
// adapter and checks the monitor sees the canonical ordered stream:
// started(1), done(1), improved(1), started(2), done(2), ... with
// improvements exactly when the objective strictly improves.
func TestSessionEmitsOrderedEvents(t *testing.T) {
	target := newEventTarget()
	sp := target.space
	cfgs := []Config{
		sp.Default(),                // time 9.5 → improves (first)
		sp.Default().With("a", 0.2), // time 9.8 → no improvement
		sp.Default().With("a", 0.9), // time 9.1 → improves
	}
	var got []Event
	mon := &Monitor{OnEvent: func(ev Event) { got = append(got, ev) }}
	ctx := WithMonitor(context.Background(), mon)
	if _, err := DriveProposer(ctx, "stub", target, Budget{Trials: 3}, &listProposer{pending: cfgs}); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind  EventKind
		trial int
	}{
		{TrialStarted, 1}, {TrialDone, 1}, {IncumbentImproved, 1},
		{TrialStarted, 2}, {TrialDone, 2},
		{TrialStarted, 3}, {TrialDone, 3}, {IncumbentImproved, 3},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Kind != w.kind || got[i].Trial != w.trial {
			t.Errorf("event %d: got (%s, trial %d), want (%s, trial %d)",
				i, got[i].Kind, got[i].Trial, w.kind, w.trial)
		}
	}
	// TrialDone carries the result and the cumulative simulated time.
	if got[1].Result.Time != 9.5 || got[1].SimTimeUsed != 9.5 {
		t.Errorf("trial 1 done: result %v, sim %v", got[1].Result.Time, got[1].SimTimeUsed)
	}
	if got[4].SimTimeUsed != 9.5+9.8 {
		t.Errorf("trial 2 cumulative sim time = %v", got[4].SimTimeUsed)
	}
}

// TestSessionWithoutMonitorEmitsNothing: the monitor is strictly opt-in.
func TestSessionWithoutMonitorEmitsNothing(t *testing.T) {
	target := newEventTarget()
	s := NewSession(context.Background(), target, Budget{Trials: 1})
	s.Record(Candidate{Config: target.space.Default()}, target.Run(target.space.Default()))
	// Nothing to assert beyond not panicking: no monitor was attached.
	if s.mon != nil {
		t.Fatal("session invented a monitor")
	}
}

// TestEventJSON checks the wire form of each event kind.
func TestEventJSON(t *testing.T) {
	target := newEventTarget()
	cfg := target.space.Default()

	started, err := json.Marshal(Event{Kind: TrialStarted, Seq: 1, Trial: 1, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"kind":"trial_started","seq":1,"trial":1,"config":{"a":"0.5"}}`; string(started) != want {
		t.Errorf("trial_started JSON:\n got %s\nwant %s", started, want)
	}

	done, err := json.Marshal(Event{
		Kind: TrialDone, Seq: 2, Trial: 1, Config: cfg,
		Result: Result{Time: 9.5}, SimTimeUsed: 9.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"kind":"trial_done"`, `"result":{"time":9.5}`, `"sim_time_used":9.5`} {
		if !strings.Contains(string(done), frag) {
			t.Errorf("trial_done JSON missing %s: %s", frag, done)
		}
	}

	fail, err := json.Marshal(Event{Kind: SessionDone, Seq: 3, Err: errors.New("boom")})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"kind":"session_done","seq":3,"error":"boom"}`; string(fail) != want {
		t.Errorf("session_done JSON:\n got %s\nwant %s", fail, want)
	}

	res := &TuningResult{Tuner: "stub", Target: "stub/events", Best: cfg, BestResult: Result{Time: 9.5}}
	ok, err := json.Marshal(Event{Kind: SessionDone, Seq: 4, Final: res})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"final":{`, `"tuner":"stub"`, `"best":{"a":"0.5"}`} {
		if !strings.Contains(string(ok), frag) {
			t.Errorf("session_done JSON missing %s: %s", frag, ok)
		}
	}
}

// TestConfigJSON: valid configs marshal as maps, the zero config as null.
func TestConfigJSON(t *testing.T) {
	b, err := json.Marshal(Config{})
	if err != nil || string(b) != "null" {
		t.Errorf("zero config: %s, %v", b, err)
	}
	b, err = json.Marshal(newEventTarget().space.Default())
	if err != nil || string(b) != `{"a":"0.5"}` {
		t.Errorf("default config: %s, %v", b, err)
	}
}

// TestStreamSummaryAddAllocatesNothing: the live fold runs on every event a
// run appends, so the incumbent's configuration map is rendered only when the
// summary is read (Rendered), never by Add.
func TestStreamSummaryAddAllocatesNothing(t *testing.T) {
	cfg := newEventTarget().space.Default()
	events := []Event{
		{Kind: TrialStarted, Trial: 1, Config: cfg},
		{Kind: TrialDone, Trial: 1, Config: cfg, Result: Result{Time: 9.5}, SimTimeUsed: 9.5},
		{Kind: IncumbentImproved, Trial: 1, Config: cfg, Result: Result{Time: 9.5}},
		{Kind: TrialPruned, Trial: 1, Config: cfg},
		{Kind: ParetoIncumbent, Trial: 1, Config: cfg},
		{Kind: GuardrailViolation, Trial: 1, Config: cfg, Limit: 9},
		{Kind: DriftDetected, Trial: 1},
	}
	var s StreamSummary
	if allocs := testing.AllocsPerRun(100, func() {
		for i, ev := range events {
			ev.Seq = i + 1
			s.Add(ev)
		}
	}); allocs != 0 {
		t.Errorf("Add allocates %v times per pass, want 0", allocs)
	}
	r := s.Rendered()
	if r.BestTrial != 1 || r.BestResult == nil || r.BestResult.Time != 9.5 || r.BestConfig["a"] != "0.5" {
		t.Errorf("rendered incumbent = trial %d, %v, %v", r.BestTrial, r.BestResult, r.BestConfig)
	}
	if s.BestConfig != nil || s.BestResult != nil {
		t.Error("Add rendered the incumbent")
	}
}
