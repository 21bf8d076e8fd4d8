package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/tune"
	"repro/internal/tune/store"
)

// TestSpecJSONRoundTrip: a fully populated spec survives encoding/json
// unchanged — the property that makes specs servable and recordable.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		System:   "spark",
		Workload: "terasort",
		Tuner:    "scaled-proxy",
		Seed:     1234,
		Budget:   Budget{Trials: 25, SimTime: 3600},
		Target: TargetOptions{
			ScaleGB: 80, Nodes: 32, Heterogeneous: true,
			TenantLoad: 0.3, FullSparkSpace: true,
		},
		Proxy:    &ProxySpec{ScaleGB: 4},
		Parallel: 4,
		Fidelity: &FidelitySpec{Strategy: "hyperband"},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip changed the spec:\n  in:  %+v\n  out: %+v", spec, back)
	}
	// Wire names stay snake_case: remote clients program against them.
	for _, key := range []string{`"system"`, `"workload"`, `"tuner"`, `"seed"`, `"budget"`, `"trials"`, `"sim_time"`, `"scale_gb"`, `"tenant_load"`, `"full_spark_space"`, `"proxy"`, `"parallel"`, `"fidelity"`, `"strategy"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("spec JSON missing %s: %s", key, data)
		}
	}
}

// TestSpecValidate rejects unknown names and bad ranges with messages that
// name the offending field.
func TestSpecValidate(t *testing.T) {
	ok := Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Budget: Budget{Trials: 5}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(s *Spec) { s.System = "nosuch" }, "unknown system"},
		{func(s *Spec) { s.Workload = "nosuch" }, "unknown dbms workload"},
		{func(s *Spec) { s.Tuner = "nosuch" }, "unknown tuner"},
		{func(s *Spec) { s.Budget.Trials = -1 }, "trials"},
		{func(s *Spec) { s.Budget.SimTime = -2 }, "sim_time"},
		{func(s *Spec) { s.Budget = Budget{} }, "requires budget.trials > 0"},
		{func(s *Spec) { s.Budget = Budget{Trials: 0, SimTime: 100} }, "requires budget.trials > 0"},
		{func(s *Spec) { s.Parallel = -1 }, "parallel"},
		{func(s *Spec) { s.Target.TenantLoad = 0.95 }, "TenantLoad"},
		{func(s *Spec) { s.Proxy = &ProxySpec{ScaleGB: 0} }, "proxy"},
		{func(s *Spec) { s.Proxy = &ProxySpec{ScaleGB: 1} }, "does not use one"},
		{func(s *Spec) { s.Fidelity = &FidelitySpec{Strategy: "nosuch"} }, "fidelity strategy"},
	}
	for _, c := range cases {
		spec := ok
		c.mutate(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", spec, err, c.want)
		}
	}
}

// TestNewTargetValidation is the facade-hardening satellite: out-of-range
// options are rejected with descriptive errors instead of being accepted
// silently.
func TestNewTargetValidation(t *testing.T) {
	cases := []struct {
		opts TargetOptions
		want string
	}{
		{TargetOptions{TenantLoad: -0.1}, "TenantLoad"},
		{TargetOptions{TenantLoad: 0.91}, "TenantLoad"},
		{TargetOptions{ScaleGB: -1}, "ScaleGB"},
		{TargetOptions{Nodes: -2}, "Nodes"},
	}
	for _, c := range cases {
		_, err := NewTarget("dbms", "tpch", 1, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewTarget(%+v) = %v, want error containing %q", c.opts, err, c.want)
		}
	}
	// The documented edge of the range is accepted.
	if _, err := NewTarget("dbms", "tpch", 1, TargetOptions{TenantLoad: 0.9, ScaleGB: 1}); err != nil {
		t.Errorf("TenantLoad 0.9 should be accepted: %v", err)
	}
}

// TestStartMatchesBlockingTune is the first acceptance criterion: for a
// fixed spec and seed the session-handle path produces the same final
// result as the blocking string-constructor path.
func TestStartMatchesBlockingTune(t *testing.T) {
	spec := Spec{
		System: "dbms", Workload: "tpch", Tuner: "ituned",
		Seed: 7, Budget: Budget{Trials: 12},
		Target: TargetOptions{ScaleGB: 2},
	}
	run, err := Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	handle, err := run.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}

	target, err := NewTarget(spec.System, spec.Workload, spec.Seed, spec.Target)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTuner(spec.Tuner, TunerOptions{Seed: spec.Seed, TargetName: target.Name()})
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := Tune(context.Background(), target, tn, spec.Budget, 1)
	if err != nil {
		t.Fatal(err)
	}

	a, err := json.Marshal(handle)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(blocking)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("handle and blocking results differ:\n  handle:   %s\n  blocking: %s", a, b)
	}
}

// TestStartEventStreamDeterministicAcrossParallel is the second acceptance
// criterion: the TrialDone event sequence is byte-identical at parallel 1
// and parallel 4 for the same spec and seed.
func TestStartEventStreamDeterministicAcrossParallel(t *testing.T) {
	stream := func(parallel int) [][]byte {
		spec := Spec{
			System: "dbms", Workload: "tpch", Tuner: "ituned",
			Seed: 21, Budget: Budget{Trials: 14},
			Target:   TargetOptions{ScaleGB: 2},
			Parallel: parallel,
		}
		run, err := Start(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var done [][]byte
		for ev := range run.Events() {
			if ev.Kind != TrialDone {
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, data)
		}
		if _, err := run.Wait(nil); err != nil {
			t.Fatal(err)
		}
		return done
	}
	seq := stream(1)
	par := stream(4)
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("trial_done counts: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("trial_done %d differs:\n  parallel 1: %s\n  parallel 4: %s", i, seq[i], par[i])
		}
	}
}

// TestScenarioEventStreamsDeterministicAcrossParallel extends the stream
// determinism guarantee to the scenario classes: for drift detection,
// Pareto tracking, and guardrail screening, the observation-ordered event
// stream (TrialDone plus every scenario event) is byte-identical at
// parallel 1 and parallel 4. This is the property that makes scenario
// sessions replayable and their /events streams safe to diff across
// deployments.
func TestScenarioEventStreamsDeterministicAcrossParallel(t *testing.T) {
	specs := map[string]Spec{
		"drift": {
			System: "dbms", Workload: "oltp-olap-shift", Tuner: "ituned",
			Seed: 11, Budget: Budget{Trials: 24},
			Target:      TargetOptions{ScaleGB: 2},
			DriftDetect: true,
		},
		"pareto": {
			System: "dbms", Workload: "tpch", Tuner: "ituned",
			Seed: 11, Budget: Budget{Trials: 20},
			Target: TargetOptions{ScaleGB: 2},
			Pareto: true,
		},
		"guardrail": {
			System: "dbms", Workload: "tpch", Tuner: "ituned",
			Seed: 11, Budget: Budget{Trials: 16},
			Target: TargetOptions{ScaleGB: 2},
			// Tight enough that the screen's unscreened cold start violates
			// (the golden needs scenario events to compare), loose enough
			// that safe anchors exist for the screen to work from.
			Guardrail: 100,
		},
	}
	ordered := map[EventKind]bool{
		TrialDone:               true,
		tune.ParetoIncumbent:    true,
		tune.GuardrailViolation: true,
		tune.DriftDetected:      true,
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			stream := func(parallel int) [][]byte {
				s := spec
				s.Parallel = parallel
				run, err := Start(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				var evs [][]byte
				scenarioSeen := false
				for ev := range run.Events() {
					if !ordered[ev.Kind] {
						continue
					}
					if ev.Kind != TrialDone {
						scenarioSeen = true
					}
					data, err := json.Marshal(ev)
					if err != nil {
						t.Fatal(err)
					}
					evs = append(evs, data)
				}
				if _, err := run.Wait(nil); err != nil {
					t.Fatal(err)
				}
				if !scenarioSeen {
					t.Fatalf("%s session emitted no scenario events — the golden would be vacuous", name)
				}
				return evs
			}
			seq := stream(1)
			par := stream(4)
			if len(seq) == 0 || len(seq) != len(par) {
				t.Fatalf("event counts: %d vs %d", len(seq), len(par))
			}
			for i := range seq {
				if !bytes.Equal(seq[i], par[i]) {
					t.Fatalf("event %d differs:\n  parallel 1: %s\n  parallel 4: %s", i, seq[i], par[i])
				}
			}
		})
	}
}

// —— registry plug-ins ————————————————————————————————————————————————————

// flatTarget is a minimal external system: quadratic bowl around a=0.7,
// noise-free, so its runs ignore their index.
type flatTarget struct {
	name  string
	space *tune.Space
	seed  int64
	runs  atomic.Int64
}

func (f *flatTarget) Name() string              { return f.name }
func (f *flatTarget) Space() *tune.Space        { return f.space }
func (f *flatTarget) ReserveRuns(n int64) int64 { return f.runs.Add(n) - n + 1 }
func (f *flatTarget) Run(cfg tune.Config) tune.Result {
	return f.RunIndexed(f.ReserveRuns(1), cfg)
}
func (f *flatTarget) RunIndexed(_ int64, cfg tune.Config) tune.Result {
	d := cfg.Float("a") - 0.7
	return tune.Result{Time: 1 + d*d}
}

// bowlFactory builds flatTargets named for the given system.
func bowlFactory(system string) TargetFactory {
	return TargetFactory{New: func(wl string, seed int64, o TargetOptions) (Target, error) {
		return &flatTarget{name: system + "/" + wl, space: tune.NewSpace(tune.Float("a", 0, 1, 0.5)), seed: seed}, nil
	}}
}

// fixedTuner is a minimal external algorithm: a straight-line loop over a
// fixed ladder of configurations, proposed through tune.Sequential.
type fixedTuner struct{ seed int64 }

func (f *fixedTuner) Name() string { return "custom/fixed" }
func (f *fixedTuner) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	return tune.Sequential(func(run tune.RunFunc) {
		for _, a := range []float64{0.1, 0.5, 0.7, 0.9} {
			if _, ok := run(target.Space().Default().With("a", a)); !ok {
				return
			}
		}
	}), nil
}

// TestRegistriesPlugInByName registers an external system and tuner and
// drives them through the full declarative path: Spec → Start → events →
// result. This is the extension seam the daemon exposes to other systems.
func TestRegistriesPlugInByName(t *testing.T) {
	custom := bowlFactory("customsys")
	custom.Workloads = []string{"bowl"}
	err := RegisterTarget("customsys", custom)
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterTuner("custom-fixed", "external", "fixed ladder probe", func(o TunerOptions) (Tuner, error) {
		return &fixedTuner{seed: o.Seed}, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Both registries now list the plug-ins.
	found := false
	for _, s := range Systems() {
		if s == "customsys" {
			found = true
		}
	}
	if !found {
		t.Error("customsys not listed in Systems()")
	}
	if cat, _, ok := TunerInfo("custom-fixed"); !ok || cat != "external" {
		t.Errorf("TunerInfo(custom-fixed) = %q, %v", cat, ok)
	}

	run, err := Start(context.Background(), Spec{
		System: "customsys", Workload: "bowl", Tuner: "custom-fixed",
		Seed: 1, Budget: Budget{Trials: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 4 {
		t.Errorf("custom session ran %d trials, want 4", len(res.Trials))
	}
	if got := res.Best.Float("a"); got != 0.7 {
		t.Errorf("best a = %v, want 0.7", got)
	}

	// A factory with no declared workload list accepts open-ended names:
	// Spec validation defers to the factory, like NewTarget does.
	if err := RegisterTarget("customopen", bowlFactory("customopen")); err != nil {
		t.Fatal(err)
	}
	openSpec := Spec{System: "customopen", Workload: "anything-goes", Tuner: "custom-fixed", Budget: Budget{Trials: 1}}
	if err := openSpec.Validate(); err != nil {
		t.Errorf("open workload namespace rejected: %v", err)
	}
	if _, err := openSpec.Job(); err != nil {
		t.Errorf("open workload namespace refused at build: %v", err)
	}

	// Duplicate and malformed registrations are rejected.
	if err := RegisterTarget("customsys", TargetFactory{New: func(string, int64, TargetOptions) (Target, error) { return nil, nil }}); err == nil {
		t.Error("duplicate RegisterTarget should error")
	}
	if err := RegisterTuner("custom-fixed", "x", "y", func(TunerOptions) (Tuner, error) { return nil, nil }); err == nil {
		t.Error("duplicate RegisterTuner should error")
	}
	if err := RegisterTarget("", TargetFactory{}); err == nil {
		t.Error("empty RegisterTarget should error")
	}
	if err := RegisterTuner("", "", "", nil); err == nil {
		t.Error("empty RegisterTuner should error")
	}
}

// TestNewTargetRefusesMisnamedTarget: a factory whose target is named for
// another system is refused, naming both, since its sessions would be
// archived under one system and read back under another.
func TestNewTargetRefusesMisnamedTarget(t *testing.T) {
	if err := RegisterTarget("custommisnamed", bowlFactory("customsys")); err != nil {
		t.Fatal(err)
	}
	_, err := NewTarget("custommisnamed", "bowl", 1)
	if err == nil || !strings.Contains(err.Error(), `"custommisnamed"`) || !strings.Contains(err.Error(), `"customsys/bowl"`) {
		t.Errorf("NewTarget on a misnamed factory = %v, want a refusal naming the system and the target", err)
	}
}

// runOn runs spec against the repository directory in the library's
// three-line form: open the store, build the job on it, submit.
func runOn(t *testing.T, dir string, spec Spec) *TuningResult {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	job, err := spec.JobOn(st, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := defaultEngine().Submit(job).Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpecRepositoryLifecycle drives the facade's durable-repository path:
// a job built on an open store archives the finished session into it; a
// later warm-started session reads that history, transfers seed
// configurations, and archives itself too.
func TestSpecRepositoryLifecycle(t *testing.T) {
	dir := t.TempDir()
	runOn(t, dir, Spec{
		System: "spark", Workload: "kmeans", Tuner: "ituned",
		Seed: 3, Budget: Budget{Trials: 8},
	})
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.ForSystem("spark")
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 || len(got) != 1 ||
		got[0].Workload != "kmeans" || len(got[0].Trials) != 8 {
		t.Fatalf("archived state wrong: %d records, spark ones %+v", st.Len(), got)
	}
	st.Close()

	res := runOn(t, dir, Spec{
		System: "spark", Workload: "pagerank", Tuner: "ituned",
		Seed: 4, Budget: Budget{Trials: 8}, Target: TargetOptions{ScaleGB: 1},
		WarmStart: true,
	})
	// The first WarmSeeds trials are the transferred configurations: they
	// must equal the best trials of the archived kmeans session.
	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sessions, err := st.ForSystem("spark")
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("warm session not archived: %d records", len(sessions))
	}
	target, err := NewTarget("spark", "pagerank", 4, TargetOptions{ScaleGB: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the corpus the warm session saw: only the kmeans record
	// existed when it was submitted (its own archive came later).
	histOnly := &Repository{}
	histOnly.Add(sessions[0])
	seeds := tune.WarmConfigs(histOnly, "spark", nil, target.Space(), WarmSeeds)
	// (nil features: with a single compatible session the mapping has one
	// candidate regardless of features.)
	if len(seeds) != WarmSeeds {
		t.Fatalf("transferred %d seeds, want %d", len(seeds), WarmSeeds)
	}
	for i := 0; i < WarmSeeds; i++ {
		if res.Trials[i].Config.String() != seeds[i].String() {
			t.Errorf("trial %d is not transferred seed %d:\n  got  %s\n  want %s",
				i+1, i, res.Trials[i].Config, seeds[i])
		}
	}
}

// corpusProbe is a store whose per-system read is counted and can fail.
type corpusProbe struct {
	store.Store
	reads int
	err   error
}

func (c *corpusProbe) ForSystem(system string) ([]SessionRecord, error) {
	c.reads++
	if c.err != nil {
		return nil, c.err
	}
	return c.Store.ForSystem(system)
}

// TestJobOnReadsTheCorpusWhenTheTunerIsBuilt pins who reads past sessions,
// and when: a repository-driven tuner snapshots its system's history while
// the job is built — a record appended afterwards is not seen, a read error
// fails the build — and a tuner that ignores the corpus never reads it.
func TestJobOnReadsTheCorpusWhenTheTunerIsBuilt(t *testing.T) {
	past := func(workload string, seed int64) (rec SessionRecord) {
		job, err := Spec{System: "spark", Workload: workload, Tuner: "ituned", Seed: seed, Budget: Budget{Trials: 10}}.
			JobWithWarm(nil, nil, func(r SessionRecord) { rec = r })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := defaultEngine().Submit(job).Wait(nil); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	kmeans, wordcount := past("kmeans", 5), past("wordcount", 6)
	spec := Spec{System: "spark", Workload: "pagerank", Tuner: "ottertune", Seed: 9,
		Budget: Budget{Trials: 12}, Target: TargetOptions{ScaleGB: 1}}
	// trials runs spec on a store holding kmeans, with wordcount appended
	// before the job is built, after it (before it runs), or not at all.
	trials := func(before, after bool) string {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		appendRec := func(rec SessionRecord) {
			if _, err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		appendRec(kmeans)
		if before {
			appendRec(wordcount)
		}
		probe := &corpusProbe{Store: st}
		job, err := spec.JobOn(probe, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if after {
			appendRec(wordcount)
		}
		res, err := defaultEngine().Submit(job).Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		if probe.reads != 1 {
			t.Errorf("ottertune read the corpus %d times, want once, at build", probe.reads)
		}
		out, err := json.Marshal(res.Trials)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	base := trials(false, false)
	if trials(true, false) == base {
		t.Fatal("a second past session does not change the ottertune session: the test could not see a late read")
	}
	if trials(false, true) != base {
		t.Error("a record appended after the job was built changed its session")
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append(kmeans); err != nil {
		t.Fatal(err)
	}
	broken := &corpusProbe{Store: st, err: errors.New("segment unreadable")}
	for _, tuner := range []string{"ottertune", "recommender"} {
		s := spec
		s.Tuner = tuner
		if _, err := s.JobOn(broken, "", nil, nil); err == nil || !strings.Contains(err.Error(), "segment unreadable") {
			t.Errorf("%s on an unreadable corpus: err = %v, want the read error", tuner, err)
		}
	}
	// ituned ignores the corpus — warm-started or not, nothing reads it.
	broken.reads = 0
	for _, warm := range []bool{false, true} {
		s := spec
		s.Tuner, s.WarmStart = "ituned", warm
		job, err := s.JobOn(broken, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := defaultEngine().Submit(job).Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if broken.reads != 0 {
		t.Errorf("ituned sessions read the corpus %d times", broken.reads)
	}
}

// TestJobReadsTheCorpusOncePerBuild: a Pareto sweep builds one tuner per
// weight, and all of them are built on one read of the corpus, so a record
// archived between two of those builds cannot split their histories. A tuner
// that ignores the corpus still never reads it.
func TestJobReadsTheCorpusOncePerBuild(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for tuner, want := range map[string]int{"ottertune": 1, "ituned": 0} {
		probe := &corpusProbe{Store: st}
		spec := Spec{System: "spark", Workload: "pagerank", Tuner: tuner, Seed: 9,
			Budget: Budget{Trials: 40}, Target: TargetOptions{ScaleGB: 1}, Pareto: true}
		if _, err := spec.JobOn(probe, "", nil, nil); err != nil {
			t.Fatal(err)
		}
		if probe.reads != want {
			t.Errorf("%s under pareto read the corpus %d times while the job was built, want %d", tuner, probe.reads, want)
		}
	}
}

// TestSpecWarmStartRequiresAskTell: warm-starting a tuner with no proposer
// form — only the adaptive family is left without one — fails with a
// descriptive error at materialization.
func TestSpecWarmStartRequiresAskTell(t *testing.T) {
	_, err := Spec{
		System: "dbms", Workload: "tpch", Tuner: "colt",
		Seed: 1, Budget: Budget{Trials: 2}, WarmStart: true,
	}.Job()
	if err == nil || !strings.Contains(err.Error(), "ask/tell") {
		t.Fatalf("err = %v, want an ask/tell explanation", err)
	}
	// Without WarmStart the same tuner materializes fine.
	if _, err := (Spec{
		System: "dbms", Workload: "tpch", Tuner: "colt",
		Seed: 1, Budget: Budget{Trials: 2},
	}).Job(); err != nil {
		t.Fatalf("colt without warm start: %v", err)
	}
	// Warm start over an empty corpus degrades to cold, not to an error.
	if _, err := (Spec{
		System: "dbms", Workload: "tpch", Tuner: "ituned",
		Seed: 1, Budget: Budget{Trials: 2}, WarmStart: true,
	}).Job(); err != nil {
		t.Fatalf("warm start without history: %v", err)
	}
}

// TestSpecFidelityMaterialization: a fidelity spec needs an ask/tell tuner;
// builtin targets all expose a fidelity path, and the materialized job runs
// the wrapped hyperband tuner.
func TestSpecFidelityMaterialization(t *testing.T) {
	_, err := Spec{
		System: "dbms", Workload: "tpch", Tuner: "colt",
		Seed: 1, Budget: Budget{Trials: 22}, Fidelity: &FidelitySpec{},
	}.Job()
	if err == nil || !strings.Contains(err.Error(), "ask/tell") {
		t.Fatalf("err = %v, want an ask/tell explanation", err)
	}
	job, err := Spec{
		System: "spark", Workload: "pagerank", Tuner: "ituned",
		Seed: 1, Budget: Budget{Trials: 22}, Target: TargetOptions{ScaleGB: 1},
		Fidelity: &FidelitySpec{Strategy: "halving"},
	}.Job()
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Tuner.Name(); got != "halving(experiment/ituned)" {
		t.Errorf("fidelity job tuner = %q", got)
	}
	// Every builtin system's target supports the fidelity path.
	for _, tc := range []struct{ system, wl string }{
		{"dbms", "tpch"}, {"hadoop", "terasort"}, {"spark", "kmeans"}, {"paralleldb", "grep"},
	} {
		target, err := NewTarget(tc.system, tc.wl, 1, TargetOptions{ScaleGB: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := target.(FidelityTarget); !ok {
			t.Errorf("%s target has no fidelity path", tc.system)
		}
	}
}

// TestSpecFidelityRemeasuresPromoted: a fidelity schedule re-measures each
// promoted configuration at the higher rung as a fresh run, and the whole
// event stream stays byte-identical at parallel 1 and parallel 4.
func TestSpecFidelityRemeasuresPromoted(t *testing.T) {
	stream := func(parallel int) []byte {
		run, err := Start(context.Background(), Spec{
			System: "dbms", Workload: "tpch", Tuner: "random",
			Seed: 9, Budget: Budget{Trials: 30}, Target: TargetOptions{ScaleGB: 2},
			Fidelity: &FidelitySpec{Strategy: "hyperband"}, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for ev := range run.Events() {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(out, data...), '\n')
		}
		res, err := run.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		// A promoted configuration's higher rung is a fresh, costlier run.
		byConfig := map[string]map[float64]float64{}
		for _, tr := range res.Trials {
			k := tr.Config.String()
			if byConfig[k] == nil {
				byConfig[k] = map[float64]float64{}
			}
			byConfig[k][tr.Result.Fidelity] = tr.Result.Time
		}
		promoted := 0
		for _, times := range byConfig {
			if len(times) > 1 {
				promoted++
			}
		}
		if promoted == 0 {
			t.Fatal("no configuration was measured at two fidelities")
		}
		return out
	}
	if seq, par := stream(1), stream(4); !bytes.Equal(seq, par) {
		t.Fatalf("fidelity stream differs across parallelism:\nparallel 1:\n%s\nparallel 4:\n%s", seq, par)
	}
}
