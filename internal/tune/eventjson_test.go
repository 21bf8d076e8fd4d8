package tune_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro"
	"repro/internal/tune"
)

// The reflection oracle: the eventJSON mirror struct and encoding/json path
// that encoded events before Event.AppendJSON. It builds configuration maps
// itself, formatting values with fmt as Param.FormatValue once did, and
// never calls Config.MarshalJSON.

type eventJSON struct {
	Kind        tune.EventKind      `json:"kind"`
	Seq         int                 `json:"seq"`
	Trial       int                 `json:"trial,omitempty"`
	Fidelity    float64             `json:"fidelity,omitempty"`
	Config      map[string]string   `json:"config,omitempty"`
	Result      *tune.Result        `json:"result,omitempty"`
	SimTimeUsed float64             `json:"sim_time_used,omitempty"`
	Limit       float64             `json:"limit,omitempty"`
	Final       *tuningResultJSON   `json:"final,omitempty"`
	Err         string              `json:"error,omitempty"`
	Summary     *tune.StreamSummary `json:"summary,omitempty"`
}

type trialJSON struct {
	N      int               `json:"n"`
	Config map[string]string `json:"config"`
	Result tune.Result       `json:"result"`
}

type tuningResultJSON struct {
	Tuner               string            `json:"tuner"`
	Target              string            `json:"target"`
	Best                map[string]string `json:"best"`
	BestResult          tune.Result       `json:"best_result"`
	Trials              []trialJSON       `json:"trials,omitempty"`
	SimTimeUsed         float64           `json:"sim_time_used,omitempty"`
	Front               []trialJSON       `json:"pareto_front,omitempty"`
	GuardrailViolations int               `json:"guardrail_violations,omitempty"`
	DriftDetections     int               `json:"drift_detections,omitempty"`
}

func reflectJSON(e tune.Event) ([]byte, error) {
	j := eventJSON{Kind: e.Kind, Seq: e.Seq, Trial: e.Trial, Fidelity: e.Fidelity, Config: configMap(e.Config)}
	switch e.Kind {
	case tune.TrialDone, tune.IncumbentImproved, tune.ParetoIncumbent:
		r := e.Result
		j.Result = &r
		j.SimTimeUsed = e.SimTimeUsed
	case tune.GuardrailViolation:
		r := e.Result
		j.Result = &r
		j.Limit = e.Limit
	case tune.SessionDone:
		if f := e.Final; f != nil {
			j.Final = &tuningResultJSON{
				Tuner: f.Tuner, Target: f.Target, Best: configMap(f.Best), BestResult: f.BestResult,
				Trials: trialsJSON(f.Trials), SimTimeUsed: f.SimTimeUsed, Front: trialsJSON(f.Front),
				GuardrailViolations: f.GuardrailViolations, DriftDetections: f.DriftDetections,
			}
		}
		if e.Err != nil {
			j.Err = e.Err.Error()
		}
	case tune.StreamCheckpoint, tune.StreamLagged:
		j.Summary = e.Summary
	}
	return json.Marshal(j)
}

// configMap is nil for the invalid config (null in a trial, omitted from an
// event) and an empty map for a zero-dimension one ({} in a trial).
func configMap(c tune.Config) map[string]string {
	if !c.Valid() {
		return nil
	}
	m := map[string]string{}
	for _, p := range c.Space().Params() {
		m[p.Name] = sprintfValue(p, c.Native(p.Name))
	}
	return m
}

func trialsJSON(ts []tune.Trial) []trialJSON {
	if ts == nil {
		return nil
	}
	out := make([]trialJSON, len(ts))
	for i, t := range ts {
		out[i] = trialJSON{N: t.N, Config: configMap(t.Config), Result: t.Result}
	}
	return out
}

// sprintfValue is Param.FormatValue as it was written with fmt.
func sprintfValue(p tune.Param, v float64) string {
	switch p.Kind {
	case tune.KindFloat:
		return fmt.Sprintf("%.4g%s", v, p.Unit)
	case tune.KindInt:
		return fmt.Sprintf("%d%s", int(math.Round(v)), p.Unit)
	case tune.KindBool:
		if v != 0 {
			return "on"
		}
		return "off"
	case tune.KindCategorical:
		i := int(math.Round(v))
		if i >= 0 && i < len(p.Choices) {
			return p.Choices[i]
		}
		return fmt.Sprintf("choice(%d)", i)
	}
	return fmt.Sprintf("%v", v)
}

// checkAgainstOracle asserts AppendJSON and json.Marshal(ev) write the
// oracle's bytes, or all three fail.
func checkAgainstOracle(t testing.TB, ev tune.Event) {
	t.Helper()
	want, werr := reflectJSON(ev)
	prefix := []byte("data: ")
	got, gerr := ev.AppendJSON(prefix)
	marshalled, merr := json.Marshal(ev)
	if (werr != nil) != (gerr != nil) || (werr != nil) != (merr != nil) {
		t.Fatalf("%s seq %d: oracle error %v, AppendJSON error %v, json.Marshal error %v", ev.Kind, ev.Seq, werr, gerr, merr)
	}
	if werr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%s seq %d: failed AppendJSON returned %q, want dst unchanged", ev.Kind, ev.Seq, got)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s seq %d: AppendJSON differs from the reflection oracle:\n got %s\nwant %s", ev.Kind, ev.Seq, got[len(prefix):], want)
	}
	if !bytes.Equal(marshalled, want) {
		t.Fatalf("%s seq %d: json.Marshal differs from the reflection oracle:\n got %s\nwant %s", ev.Kind, ev.Seq, marshalled, want)
	}
}

var allKinds = []tune.EventKind{
	tune.TrialStarted, tune.TrialDone, tune.IncumbentImproved, tune.TrialPruned, tune.SessionDone,
	tune.ParetoIncumbent, tune.GuardrailViolation, tune.DriftDetected,
	tune.StreamCheckpoint, tune.StreamLagged, tune.Draining,
}

// awkward is a string every escaping rule applies to: HTML-sensitive and
// quoting bytes, control bytes, DEL, invalid UTF-8, U+2028/U+2029, non-ASCII.
const awkward = "<>&\"\\ \x00\x01\x1f\t\n\r\b\f\x7f \xff\xfe \u2028\u2029 é 日本"

// awkwardSpace has names and values that need escaping and names whose
// byte order differs from their declaration order.
func awkwardSpace() *tune.Space {
	return tune.NewSpace(
		tune.Float("b", 0, 1e30, 1),
		tune.LogFloat("a", 1e-9, 1e9, 1).WithUnit("µs"),
		tune.Int("A", -5, 5, 0).WithUnit("<&>"),
		tune.LogInt("a-b", 1, 1<<40, 3),
		tune.Bool("a_b", true),
		tune.Choice("é<\u2028", []string{"x&y", "plain", "\xff", `"q"`}, "x&y"),
		tune.Float("z", -1, 1, 0),
	)
}

// jsonFloats sit on encoding/json's format boundaries and at the ends of
// the float range.
var jsonFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 3e-10,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 5e-324, 1e300, -1e300, 0.1, 1.5, 123456.789,
}

func constructedEvents() []tune.Event {
	space := awkwardSpace()
	cfgs := []tune.Config{
		{},                        // invalid
		tune.NewSpace().Default(), // zero-dimension
		space.Default(),
		space.FromVector([]float64{0, 1, 0.3, 1, 0, 0.99, 0.5}),
		space.FromVector([]float64{1, 0, 1, 0.5, 1, 0.6, 0}),
	}
	var evs []tune.Event
	n := 0
	for _, kind := range allKinds {
		for ci, cfg := range cfgs {
			for _, f := range jsonFloats {
				n++
				results := []tune.Result{
					{},
					{Time: f},
					{Time: 1, Cost: f, Failed: true, FailReason: awkward, Fidelity: f,
						Metrics: map[string]float64{"b": f, "a<": 1, "é": 2, "A": math.Copysign(0, -1), "": 3, awkward: f}},
					{Time: f, Metrics: map[string]float64{}},
				}
				trials := []tune.Trial{{N: 1, Config: cfg, Result: results[2]}, {N: 2, Config: cfgs[ci%2], Result: results[1]}}
				finals := []*tune.TuningResult{
					nil,
					{Tuner: "t", Target: "s/w", Best: cfg, BestResult: results[n%4]},
					{Tuner: awkward, Target: "s/w", Best: cfg, BestResult: results[1], Trials: []tune.Trial{}, Front: []tune.Trial{}},
					{Tuner: "t", Target: "s/w", Best: cfgs[0], Trials: trials, Front: trials[:1], SimTimeUsed: f,
						GuardrailViolations: 2, DriftDetections: 1},
				}
				errs := []error{nil, errors.New("context canceled"), errors.New(awkward), errors.New("")}
				summaries := []*tune.StreamSummary{
					nil,
					{},
					{CoveredThrough: n, TrialsDone: 3, TrialsPruned: 2, RungsDecided: 1, SimTimeUsed: f, BestTrial: 2,
						BestConfig: configMap(cfg), BestResult: &results[2], ParetoPoints: 4, GuardrailViolations: 5,
						DriftDetections: 6, Dropped: n % 3},
					{CoveredThrough: n, BestConfig: map[string]string{}, BestResult: &results[0]},
				}
				// Every field is set on every kind: the encoder must drop
				// the ones the kind does not carry.
				evs = append(evs, tune.Event{
					Kind: kind, Seq: n, Trial: ci - 1, Config: cfg, Result: results[n%4], Fidelity: f,
					SimTimeUsed: f, Limit: -f, Final: finals[n%4], Err: errs[(n/4)%4], Summary: summaries[n%4],
				})
			}
		}
	}
	// A NaN in a field the kind does not carry is not on the wire.
	evs = append(evs, tune.Event{Kind: tune.TrialStarted, Seq: 1, Result: tune.Result{Time: math.NaN()}, Limit: math.Inf(1)})
	return evs
}

// nonFiniteEvents put a NaN or an infinity in each float the wire carries.
func nonFiniteEvents() []tune.Event {
	nan, inf := math.NaN(), math.Inf(1)
	cfg := awkwardSpace().Default()
	ok := tune.Result{Time: 1}
	return []tune.Event{
		{Kind: tune.TrialStarted, Fidelity: nan},
		{Kind: tune.TrialPruned, Fidelity: -inf},
		{Kind: tune.TrialDone, Result: tune.Result{Time: nan}},
		{Kind: tune.TrialDone, Result: tune.Result{Time: 1, Cost: inf}},
		{Kind: tune.TrialDone, Result: tune.Result{Time: 1, Fidelity: nan}},
		{Kind: tune.IncumbentImproved, Result: tune.Result{Time: 1, Metrics: map[string]float64{"a": 1, "m": inf}}},
		{Kind: tune.ParetoIncumbent, Result: ok, SimTimeUsed: nan},
		{Kind: tune.GuardrailViolation, Result: ok, Limit: inf},
		{Kind: tune.SessionDone, Final: &tune.TuningResult{Best: cfg, BestResult: tune.Result{Time: nan}}},
		{Kind: tune.SessionDone, Final: &tune.TuningResult{Best: cfg, BestResult: ok, SimTimeUsed: -inf}},
		{Kind: tune.SessionDone, Final: &tune.TuningResult{Best: cfg, BestResult: ok,
			Trials: []tune.Trial{{N: 1, Config: cfg, Result: ok}, {N: 2, Config: cfg, Result: tune.Result{Time: inf}}}}},
		{Kind: tune.SessionDone, Final: &tune.TuningResult{Best: cfg, BestResult: ok,
			Front: []tune.Trial{{N: 1, Config: cfg, Result: tune.Result{Time: 1, Metrics: map[string]float64{"m": nan}}}}}},
		{Kind: tune.StreamCheckpoint, Summary: &tune.StreamSummary{SimTimeUsed: inf}},
		{Kind: tune.StreamLagged, Summary: &tune.StreamSummary{BestResult: &tune.Result{Time: nan}}, Seq: 2},
	}
}

// realSessions are a dozen small sessions: each tuner family, a fidelity
// schedule and the three scenario wrappers, each with the kind that shows
// its path ran.
var realSessions = []struct {
	name string
	kind tune.EventKind
	spec repro.Spec
}{
	{"random", tune.IncumbentImproved, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "random", Budget: repro.Budget{Trials: 8}}},
	{"ituned", tune.IncumbentImproved, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Budget: repro.Budget{Trials: 12}}},
	{"rrs", tune.IncumbentImproved, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "rrs", Budget: repro.Budget{Trials: 12}}},
	{"neural", tune.IncumbentImproved, repro.Spec{System: "spark", Workload: "pagerank", Tuner: "neural", Budget: repro.Budget{Trials: 12}}},
	{"rules", tune.IncumbentImproved, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "rules", Budget: repro.Budget{Trials: 4}}},
	{"navigator", tune.IncumbentImproved, repro.Spec{System: "spark", Workload: "kmeans", Tuner: "navigator", Budget: repro.Budget{Trials: 12}}},
	{"starfish", tune.IncumbentImproved, repro.Spec{System: "hadoop", Workload: "terasort", Tuner: "starfish", Budget: repro.Budget{Trials: 8}}},
	{"addm", tune.IncumbentImproved, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "addm", Budget: repro.Budget{Trials: 8}}},
	{"colt", tune.IncumbentImproved, repro.Spec{System: "dbms", Workload: "oltp", Tuner: "colt", Budget: repro.Budget{Trials: 6}}},
	{"hyperband", tune.TrialPruned, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "random", Budget: repro.Budget{Trials: 24},
		Fidelity: &repro.FidelitySpec{Strategy: "hyperband"}}},
	{"pareto", tune.ParetoIncumbent, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Budget: repro.Budget{Trials: 20}, Pareto: true}},
	{"guardrail", tune.GuardrailViolation, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Budget: repro.Budget{Trials: 16}, Guardrail: 100}},
	{"drift", tune.DriftDetected, repro.Spec{System: "dbms", Workload: "oltp-olap-shift", Tuner: "ituned", Budget: repro.Budget{Trials: 24}, DriftDetect: true}},
}

// sessionEvents runs spec to completion and returns its events.
func sessionEvents(t testing.TB, spec repro.Spec) []tune.Event {
	t.Helper()
	run, err := repro.Start(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name(), err)
	}
	var evs []tune.Event
	for ev := range run.Events() {
		evs = append(evs, ev)
	}
	if _, err := run.Wait(nil); err != nil {
		t.Fatalf("%s: %v", spec.Name(), err)
	}
	return evs
}

// TestEventJSONMatchesReflection: the appender writes the reflection
// oracle's bytes — on constructed events that walk every kind, omitempty,
// null and {} choice, escaping rule and float-format boundary, and on every
// event of real sessions — and a non-finite float fails both.
func TestEventJSONMatchesReflection(t *testing.T) {
	t.Run("constructed", func(t *testing.T) {
		for _, ev := range constructedEvents() {
			checkAgainstOracle(t, ev)
		}
	})
	t.Run("non-finite", func(t *testing.T) {
		for i, ev := range nonFiniteEvents() {
			if _, err := ev.AppendJSON(nil); err == nil {
				t.Errorf("event %d (%s): AppendJSON accepted a non-finite float", i, ev.Kind)
			}
			checkAgainstOracle(t, ev)
		}
	})
	for _, s := range realSessions {
		s.spec.Seed, s.spec.Target.ScaleGB = 11, 2
		t.Run(s.name, func(t *testing.T) {
			kinds := map[tune.EventKind]bool{}
			for _, ev := range sessionEvents(t, s.spec) {
				kinds[ev.Kind] = true
				checkAgainstOracle(t, ev)
			}
			if !kinds[tune.TrialDone] || !kinds[s.kind] || !kinds[tune.SessionDone] {
				t.Errorf("session streamed only %v", kinds)
			}
		})
	}
}

// FuzzEventJSON: for any fail reason, metric name and value, fidelity and
// error text, the appender and the reflection oracle agree byte for byte or
// both fail.
func FuzzEventJSON(f *testing.F) {
	f.Add("", "buffer_hit_ratio", 0.25, 0.0, "context canceled")
	f.Add("out of memory: work_mem × connections > RAM", "spilled_mb", 1752.6865513738526, 1.0/9, "")
	f.Add(awkward, awkward, 1e21, 1e-7, awkward)
	f.Add("<script>", "", math.Copysign(0, -1), 5e-324, " ")
	f.Add("\xff\xfe", "m", math.NaN(), 0.5, "x")
	f.Add("ok", "m", 1.0, math.Inf(-1), "x")
	cfg := awkwardSpace().FromVector([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
	f.Fuzz(func(t *testing.T, reason, metric string, value, fidelity float64, errText string) {
		res := tune.Result{Time: 1 + fidelity, Cost: value, Failed: reason != "", FailReason: reason,
			Metrics: map[string]float64{metric: value, "time": 1}, Fidelity: fidelity}
		trials := []tune.Trial{{N: 1, Config: cfg, Result: res}}
		for _, ev := range []tune.Event{
			{Kind: tune.TrialStarted, Seq: 1, Trial: 1, Config: cfg, Fidelity: fidelity},
			{Kind: tune.TrialDone, Seq: 2, Trial: 1, Config: cfg, Result: res, Fidelity: fidelity, SimTimeUsed: value},
			{Kind: tune.GuardrailViolation, Seq: 3, Trial: 1, Config: cfg, Result: res, Limit: value},
			{Kind: tune.SessionDone, Seq: 4, Err: errors.New(errText), Final: &tune.TuningResult{
				Tuner: reason, Target: metric, Best: cfg, BestResult: res, Trials: trials, Front: trials}},
			{Kind: tune.StreamLagged, Seq: 5, Summary: &tune.StreamSummary{CoveredThrough: 4, SimTimeUsed: fidelity,
				BestTrial: 1, BestConfig: map[string]string{metric: reason, errText: "v"}, BestResult: &res, Dropped: 2}},
		} {
			checkAgainstOracle(t, ev)
		}
	})
}

// TestFormatValueMatchesSprintf: the strconv form of FormatValue renders
// every value of every registered space — and values outside any range —
// exactly as the fmt form did.
func TestFormatValueMatchesSprintf(t *testing.T) {
	spaces := map[string]*tune.Space{"awkward": awkwardSpace()}
	for _, sys := range repro.Systems() {
		for _, wl := range repro.Workloads(sys) {
			for _, full := range []bool{false, true} {
				if full && sys != "spark" {
					continue
				}
				target, err := repro.NewTarget(sys, wl, 1, repro.TargetOptions{FullSparkSpace: full})
				if err != nil {
					t.Fatal(err)
				}
				spaces[fmt.Sprintf("%s/%s full=%v", sys, wl, full)] = target.Space()
			}
		}
	}
	extra := append([]float64{-1, 2, 3.5, 99995, 12345.678, 1e-5, math.NaN(), math.Inf(1), math.Inf(-1)}, jsonFloats...)
	for name, space := range spaces {
		check := func(p tune.Param, v float64) {
			if got, want := p.FormatValue(v), sprintfValue(p, v); got != want {
				t.Fatalf("%s: %s.FormatValue(%v) = %q, fmt wrote %q", name, p.Name, v, got, want)
			}
		}
		x := make([]float64, space.Dim())
		for step := 0; step <= 1000; step++ {
			for i := range x {
				x[i] = float64(step) / 1000
			}
			cfg := space.FromVector(x)
			for _, p := range space.Params() {
				check(p, cfg.Native(p.Name))
			}
		}
		for _, p := range space.Params() {
			for _, v := range append([]float64{p.Min, p.Max, p.Def, float64(len(p.Choices))}, extra...) {
				check(p, v)
			}
		}
	}
	check := tune.Param{Name: "unknown kind", Kind: tune.Kind(99)}
	for _, v := range extra {
		if got, want := check.FormatValue(v), sprintfValue(check, v); got != want {
			t.Fatalf("Kind(99).FormatValue(%v) = %q, fmt wrote %q", v, got, want)
		}
	}
}

// BenchmarkEventJSON encodes a trial_done and the session_done of an
// 8-trial dbms session and of a 300-trial iTuned session, with the appender
// and with the reflection oracle.
func BenchmarkEventJSON(b *testing.B) {
	short := sessionEvents(b, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "random", Seed: 1, Budget: repro.Budget{Trials: 8}})
	long := sessionEvents(b, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: 1, Budget: repro.Budget{Trials: 300}})
	var trialDone tune.Event
	for _, ev := range short {
		if ev.Kind == tune.TrialDone {
			trialDone = ev
			break
		}
	}
	for _, c := range []struct {
		name string
		ev   tune.Event
	}{
		{"trial_done", trialDone},
		{"session_done_8", short[len(short)-1]},
		{"session_done_300", long[len(long)-1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.Run("append", func(b *testing.B) {
				b.ReportAllocs()
				var buf []byte
				for i := 0; i < b.N; i++ {
					var err error
					if buf, err = c.ev.AppendJSON(buf[:0]); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(len(buf)))
			})
			b.Run("reflect", func(b *testing.B) {
				b.ReportAllocs()
				var n int
				for i := 0; i < b.N; i++ {
					data, err := reflectJSON(c.ev)
					if err != nil {
						b.Fatal(err)
					}
					n = len(data)
				}
				b.SetBytes(int64(n))
			})
		})
	}
}

// BenchmarkRecordJSON encodes the archive record of a 30-trial iTuned dbms
// session (22 metrics a trial), with the appender and with the reflection
// oracle.
func BenchmarkRecordJSON(b *testing.B) {
	evs := sessionEvents(b, repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: 1, Budget: repro.Budget{Trials: 30}})
	rec := tune.NewSessionRecord("dbms", "tpch", map[string]float64{"scale_gb": 10}, evs[len(evs)-1].Final)
	if n := len(rec.Trials[0].Metrics); len(rec.Trials) != 30 || n != 22 {
		b.Fatalf("record has %d trials of %d metrics, want 30 of 22", len(rec.Trials), n)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = rec.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(&rec)
			if err != nil {
				b.Fatal(err)
			}
			n = len(data)
		}
		b.SetBytes(int64(n))
	})
}
