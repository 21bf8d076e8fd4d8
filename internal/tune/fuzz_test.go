package tune

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzSessionRecordJSONRoundTrip feeds arbitrary JSON at the repository's
// wire format and asserts that anything that decodes at all re-encodes into
// a stable fixpoint: decode → encode → decode must reproduce the same
// record. This is the property the durable store depends on — a record
// written by one daemon lifetime must mean the same thing to the next.
func FuzzSessionRecordJSONRoundTrip(f *testing.F) {
	f.Add(`{"system":"dbms","workload":"tpch","param_names":["a","b"],` +
		`"features":{"data_gb":10},"trials":[{"vector":[0.5,0.25],"time":12.5,` +
		`"metrics":{"spills":3}}]}`)
	f.Add(`{"system":"spark","workload":"pagerank","trials":[{"vector":[],"time":0,"failed":true}]}`)
	f.Add(`{"system":"","trials":null}`)
	f.Add(`{}`)
	f.Add(`{"system":"x","trials":[{"vector":[1e308,-1e308,0.1],"time":1e-9}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		var rec SessionRecord
		if err := json.Unmarshal([]byte(data), &rec); err != nil {
			return // not a record; nothing to round-trip
		}
		if hasNonFinite(rec) {
			return // JSON cannot carry NaN/Inf; such records never originate here
		}
		// One encode normalizes presentation (omitempty folds empty maps to
		// absent fields); from then on the cycle must be an exact fixpoint.
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		var rec2 SessionRecord
		if err := json.Unmarshal(out, &rec2); err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, out)
		}
		out2, err := json.Marshal(rec2)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Fatalf("encoding is not a fixpoint:\n  %s\n  %s", out, out2)
		}
		var rec3 SessionRecord
		if err := json.Unmarshal(out2, &rec3); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec2, rec3) {
			t.Fatalf("round trip did not stabilize:\n  second: %+v\n  third:  %+v", rec2, rec3)
		}
	})
}

// FuzzSessionRecordAppendJSON asserts that AppendJSON writes exactly what
// json.Marshal writes for any record that decodes, with x planted as a
// feature, a vector entry and a metric under key: the same bytes, or an error
// from both when x is NaN or infinite.
func FuzzSessionRecordAppendJSON(f *testing.F) {
	f.Add(`{"system":"dbms","workload":"tpch","param_names":["a","b"],"features":{"data_gb":10},`+
		`"trials":[{"vector":[0.5,0.25],"time":12.5,"metrics":{"spills":3,"gc_ms":1e-7}}]}`, 2e21, "cpu")
	f.Add(`{"system":"spark","param_names":[],"trials":[{"vector":[],"time":0,"failed":true,"fidelity":0.25}]}`, -0.0, "<&>")
	f.Add(`{"system":"é\u2028","trials":null}`, math.NaN(), "m")
	f.Add(`{"trials":[{"vector":null,"time":1,"metrics":{}}]}`, math.Inf(-1), "ü")
	f.Add(`{}`, 1e-7, "")
	f.Fuzz(func(t *testing.T, data string, x float64, key string) {
		var rec SessionRecord
		if err := json.Unmarshal([]byte(data), &rec); err != nil {
			return
		}
		if rec.Features == nil {
			rec.Features = map[string]float64{}
		}
		rec.Features[key] = x
		if len(rec.Trials) > 0 {
			tr := &rec.Trials[0]
			tr.Vector = append(tr.Vector, x)
			if tr.Metrics == nil {
				tr.Metrics = map[string]float64{}
			}
			tr.Metrics[key] = x
		}
		want, wantErr := json.Marshal(&rec)
		got, err := rec.AppendJSON([]byte("prefix"))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("a refused record left %q, want dst unchanged", got)
			}
			return
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON wrote\n  %s\njson.Marshal wrote\n  prefix%s", got, want)
		}
	})
}

// hasNonFinite reports whether any float in the record is NaN or ±Inf. Go's
// JSON decoder never produces one, so no fuzz input can carry it today; the
// check guards refactors that construct records on paths the fuzz corpus
// reaches.
func hasNonFinite(rec SessionRecord) bool {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for _, v := range rec.Features {
		if bad(v) {
			return true
		}
	}
	for _, tr := range rec.Trials {
		if bad(tr.Time) {
			return true
		}
		for _, v := range tr.Vector {
			if bad(v) {
				return true
			}
		}
		for _, v := range tr.Metrics {
			if bad(v) {
				return true
			}
		}
	}
	return false
}

// fuzzSpace covers every parameter kind, including log scales.
func fuzzSpace() *Space {
	return NewSpace(
		Float("f", -3, 7, 0),
		LogFloat("lf", 0.01, 100, 1),
		Int("i", 1, 64, 8),
		LogInt("li", 16, 4096, 256),
		Bool("b", true),
		Choice("c", []string{"lz4", "snappy", "zstd"}, "snappy"),
	)
}

// FuzzSpaceVectorEncodeDecode asserts the unit-cube contract for arbitrary
// coordinates: FromVector clamps into [0,1], decoded native values stay
// within each parameter's declared range, and one decode→encode cycle is a
// fixpoint (projecting a coordinate onto its parameter's representable
// values is idempotent — the property repository vectors rely on to mean
// the same configuration on every load).
func FuzzSpaceVectorEncodeDecode(f *testing.F) {
	f.Add(0.0, 0.5, 1.0, 0.25, 0.75, 0.999)
	f.Add(-1.5, 2.0, 0.3333, math.SmallestNonzeroFloat64, 1e300, -0.0)
	f.Add(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		in := []float64{a, b, c, d, e, g}
		for _, v := range in {
			if math.IsNaN(v) {
				return // clamp01 maps NaN arbitrarily; configs never carry NaN
			}
		}
		space := fuzzSpace()
		cfg := space.FromVector(in)
		v := cfg.Vector()
		for i, u := range v {
			if !(u >= 0 && u <= 1) {
				t.Fatalf("coordinate %d = %v not clamped into [0,1] (input %v)", i, u, in[i])
			}
		}
		// Decoded natives respect the declared ranges.
		for _, p := range space.Params() {
			n := cfg.Native(p.Name)
			if n < p.Min-1e-9 || n > p.Max+1e-9 {
				t.Fatalf("param %s decodes to %v outside [%v, %v]", p.Name, n, p.Min, p.Max)
			}
		}
		// decode → encode → decode is a fixpoint for every parameter.
		snapped := cfg
		for _, p := range space.Params() {
			snapped = snapped.WithNative(p.Name, cfg.Native(p.Name))
		}
		again := snapped
		for _, p := range space.Params() {
			again = again.WithNative(p.Name, snapped.Native(p.Name))
		}
		if !reflect.DeepEqual(snapped.Vector(), again.Vector()) {
			t.Fatalf("encode/decode not idempotent:\n  in:    %v\n  snap:  %v\n  again: %v",
				v, snapped.Vector(), again.Vector())
		}
		// And the snapped configuration renders identically to the original
		// (decoding is what defines a config's meaning).
		if cfg.String() != snapped.String() {
			t.Fatalf("snapping changed the decoded configuration:\n  %s\n  %s", cfg, snapped)
		}
	})
}
