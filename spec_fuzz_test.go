package repro

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzSpecJSONRoundTrip feeds arbitrary JSON at the daemon's spec wire
// format. Anything that decodes must stabilize after one encode cycle —
// the property that lets a recorded spec reproduce its session exactly —
// and must make the same Validate decision on both sides of the trip (a
// spec cannot become valid, or differently invalid, by being stored).
func FuzzSpecJSONRoundTrip(f *testing.F) {
	f.Add(`{"system":"dbms","workload":"tpch","tuner":"ituned","seed":42,"budget":{"trials":30}}`)
	f.Add(`{"system":"spark","workload":"pagerank","tuner":"ottertune","seed":7,` +
		`"budget":{"trials":20,"sim_time":500},"target":{"scale_gb":2,"nodes":8,` +
		`"heterogeneous":true,"tenant_load":0.3},"parallel":4}`)
	f.Add(`{"system":"hadoop","workload":"terasort","tuner":"scaled-proxy",` +
		`"budget":{"trials":5},"proxy":{"scale_gb":1}}`)
	f.Add(`{"system":"spark","workload":"kmeans","tuner":"ituned",` +
		`"budget":{"trials":9},"repository":"/tmp/repo","warm_start":true}`)
	f.Add(`{"budget":{"trials":-1}}`)
	f.Fuzz(func(t *testing.T, data string) {
		var spec Spec
		if err := json.Unmarshal([]byte(data), &spec); err != nil {
			return
		}
		if specHasNonFinite(spec) {
			return // JSON cannot carry NaN/Inf back out
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("decoded spec does not re-encode: %v", err)
		}
		var spec2 Spec
		if err := json.Unmarshal(out, &spec2); err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\n%s", err, out)
		}
		out2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Fatalf("encoding is not a fixpoint:\n  %s\n  %s", out, out2)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("round trip changed the spec:\n  first:  %+v\n  second: %+v", spec, spec2)
		}
		errA, errB := spec.Validate(), spec2.Validate()
		switch {
		case (errA == nil) != (errB == nil):
			t.Fatalf("validation disagrees across the trip: %v vs %v", errA, errB)
		case errA != nil && errA.Error() != errB.Error():
			t.Fatalf("validation errors differ: %q vs %q", errA, errB)
		}
	})
}

func specHasNonFinite(s Spec) bool {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(s.Budget.SimTime) || bad(s.Target.ScaleGB) || bad(s.Target.TenantLoad) {
		return true
	}
	if s.Proxy != nil && bad(s.Proxy.ScaleGB) {
		return true
	}
	return false
}
