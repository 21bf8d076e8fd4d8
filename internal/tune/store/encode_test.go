package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tune"
)

// The store's reflection-free writers against the reflection oracle: each
// WAL line, segment payload and checkpoint boundary line must be the bytes
// json.Marshal writes for the same value, and a value json.Marshal refuses
// must be refused too.

// checkLine compares one writer's output with json.Marshal of v plus suffix.
func checkLine(t *testing.T, what string, got []byte, err error, v any, suffix string) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: writer error %v, json.Marshal error %v", what, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, append(want, suffix...)) {
		t.Fatalf("%s:\n  wrote    %s\n  json.Marshal %s", what, got, want)
	}
}

// checkRecord checks rec as a WAL add line and as a segment payload.
func checkRecord(t *testing.T, id int64, rec tune.SessionRecord) {
	t.Helper()
	e := logEntry{Op: "add", ID: id, Record: &rec}
	line, err := e.appendLine(nil)
	checkLine(t, fmt.Sprintf("WAL line %d", id), line, err, e, "\n")
	st := Stored{ID: id, Record: rec}
	payload, err := st.appendJSON(nil)
	checkLine(t, fmt.Sprintf("segment payload %d", id), payload, err, st, "")
}

// checkBoundary checks a checkpoint boundary line, envelope and body,
// appended behind a line already in the buffer (as a rewrite appends it).
func checkBoundary(t *testing.T, b ckptBoundary) {
	t.Helper()
	const before = "{\"crc\":1,\"body\":{}}\n"
	line, err := appendCkptBoundary([]byte(before), b)
	body, wantErr := json.Marshal(b)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("boundary: writer error %v, json.Marshal error %v", err, wantErr)
	}
	want := append(append(appendCkptHead([]byte(before), body), body...), "}\n"...)
	if err == nil && !bytes.Equal(line, want) {
		t.Fatalf("boundary:\n  wrote    %s\n  json.Marshal %s", line, body)
	}
}

var encStrings = []string{"", "dbms", "tpch", "a<b", "x&y>z", "été", "日本", "line\u2028sep", "q\"uote", `back\slash`, "ctl\x01\x1f", "bad\xffutf8", "tab\t"}

var encFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 9.99e-7, 1e-6, 123.456, 1e20, 1e21, -1e21, 2.5e-300,
	math.SmallestNonzeroFloat64, math.MaxFloat64, 1293.1465420660884, 1.0 / 3}

func randEncFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return encFloats[rng.Intn(len(encFloats))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

// randEncMap returns nil, an empty map or up to 40 entries keyed from
// encStrings and numbered names.
func randEncMap(rng *rand.Rand) map[string]float64 {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return map[string]float64{}
	}
	m := map[string]float64{}
	for n := rng.Intn(41); n > 0; n-- {
		k := encStrings[rng.Intn(len(encStrings))]
		if rng.Intn(2) == 0 {
			k = fmt.Sprintf("counter_%02d", rng.Intn(40))
		}
		m[k] = randEncFloat(rng)
	}
	return m
}

func randEncFloats(rng *rand.Rand) []float64 {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	v := make([]float64, 1+rng.Intn(16))
	for i := range v {
		v[i] = randEncFloat(rng)
	}
	return v
}

func randEncRecord(rng *rand.Rand) tune.SessionRecord {
	rec := tune.SessionRecord{
		System:   encStrings[rng.Intn(len(encStrings))],
		Workload: encStrings[rng.Intn(len(encStrings))],
		Features: randEncMap(rng),
	}
	if n := rng.Intn(5) - 1; n >= 0 {
		rec.ParamNames = make([]string, n)
		for i := range rec.ParamNames {
			rec.ParamNames[i] = encStrings[rng.Intn(len(encStrings))]
		}
	}
	if n := rng.Intn(6) - 1; n >= 0 {
		rec.Trials = make([]tune.TrialRecord, n)
		for i := range rec.Trials {
			rec.Trials[i] = tune.TrialRecord{Vector: randEncFloats(rng), Time: randEncFloat(rng), Failed: rng.Intn(4) == 0, Metrics: randEncMap(rng)}
			if rng.Intn(3) == 0 {
				rec.Trials[i].Fidelity = randEncFloat(rng)
			}
		}
	}
	return rec
}

func randEncReplay(rng *rand.Rand) []tune.ReplayTrial {
	if rng.Intn(6) == 0 {
		return nil
	}
	ts := make([]tune.ReplayTrial, rng.Intn(5))
	for i := range ts {
		r := tune.Result{Time: randEncFloat(rng), Metrics: randEncMap(rng)}
		if rng.Intn(2) == 0 {
			r.Cost = randEncFloat(rng)
		}
		if rng.Intn(4) == 0 {
			r.Failed, r.FailReason = true, encStrings[rng.Intn(len(encStrings))]
		}
		if rng.Intn(3) == 0 {
			r.Fidelity = randEncFloat(rng)
		}
		ts[i] = tune.ReplayTrial{Vector: randEncFloats(rng), Result: r}
	}
	return ts
}

// TestStoreWritersMatchReflection covers the golden corpus and 3 000 random
// records and checkpoint boundaries: escaped and non-ASCII strings, both
// float forms, nil and empty slices and maps, up to 40 metrics.
func TestStoreWritersMatchReflection(t *testing.T) {
	for i, rec := range goldenCorpus() {
		checkRecord(t, int64(i), rec)
	}
	del := logEntry{Op: "del", ID: 7}
	line, err := del.appendLine(nil)
	checkLine(t, "WAL delete", line, err, del, "\n")
	replay := goldenReplay()
	checkBoundary(t, ckptBoundary{Trials: nil})
	checkBoundary(t, ckptBoundary{Trials: replay[:0], RunsReserved: 4})
	checkBoundary(t, ckptBoundary{Trials: replay, RunsReserved: 1 << 40})

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		checkRecord(t, rng.Int63(), randEncRecord(rng))
		checkBoundary(t, ckptBoundary{Trials: randEncReplay(rng), RunsReserved: rng.Int63n(1000)})
	}
}

// TestStoreWritersMetricKeyMemo walks the metric-key memo's paths, each
// against the oracle: a first map (publish), the same key set again (hit),
// the same count with one key swapped early or late (rollback), and two key
// counts alternating (a hit on each).
func TestStoreWritersMetricKeyMemo(t *testing.T) {
	metrics := func(n int, swap map[string]string) map[string]float64 {
		m := map[string]float64{}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("runtime_counter_%02d", i)
			if s, ok := swap[k]; ok {
				k = s
			}
			m[k] = float64(i) * 1.5e-7
		}
		return m
	}
	dbms, spark := metrics(22, nil), metrics(30, nil)
	for i, m := range []map[string]float64{
		dbms, dbms,
		metrics(22, map[string]string{"runtime_counter_21": "zz_last"}),
		metrics(22, map[string]string{"runtime_counter_00": "aa_first"}),
		metrics(22, map[string]string{"runtime_counter_10": "runtime_counter_10<&>"}),
		dbms, spark, dbms, spark, dbms, spark,
	} {
		rec := tune.SessionRecord{System: "dbms", Workload: "tpch", Trials: []tune.TrialRecord{{Time: 1, Metrics: m}, {Time: 2, Metrics: m}}}
		checkRecord(t, int64(i), rec)
		checkBoundary(t, ckptBoundary{Trials: []tune.ReplayTrial{{Result: tune.Result{Time: 1, Metrics: m}}}})
	}
}

// TestStoreWritersRefuseNonFinite plants NaN and ±Inf in every float a
// record or a checkpoint boundary carries: the writers refuse exactly what
// json.Marshal refuses.
func TestStoreWritersRefuseNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, plant := range []func(*tune.SessionRecord){
			func(r *tune.SessionRecord) { r.Features["data_gb"] = bad },
			func(r *tune.SessionRecord) { r.Trials[0].Vector[1] = bad },
			func(r *tune.SessionRecord) { r.Trials[1].Time = bad },
			func(r *tune.SessionRecord) { r.Trials[0].Metrics["m05"] = bad },
			func(r *tune.SessionRecord) { r.Trials[2].Fidelity = bad },
		} {
			rec := goldenCorpus()[0]
			plant(&rec)
			checkRecord(t, int64(i), rec)
			if _, err := (&Stored{Record: rec}).appendJSON(nil); err == nil {
				t.Errorf("record plant %d of %v accepted", i, bad)
			}
		}
		for i, plant := range []func(*tune.ReplayTrial){
			func(r *tune.ReplayTrial) { r.Vector[0] = bad },
			func(r *tune.ReplayTrial) { r.Result.Time = bad },
			func(r *tune.ReplayTrial) { r.Result.Cost = bad },
			func(r *tune.ReplayTrial) { r.Result.Metrics["m39"] = bad },
			func(r *tune.ReplayTrial) { r.Result.Fidelity = bad },
		} {
			rep := goldenReplay()
			plant(&rep[2])
			checkBoundary(t, ckptBoundary{Trials: rep})
			if _, err := appendCkptBoundary(nil, ckptBoundary{Trials: rep}); err == nil {
				t.Errorf("boundary plant %d of %v accepted", i, bad)
			}
		}
	}
}
