package tune

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
)

// The event encoder. AppendJSON is the only encoder of an Event — the
// daemon's SSE frames, Event.MarshalJSON and Config.MarshalJSON all write
// through it — and it writes exactly the bytes encoding/json writes for the
// shape the json tags on Result, Trial, TuningResult and StreamSummary
// declare: HTML-safe strings, encoding/json's float format, sorted map keys,
// the same omitempty, null and {} choices. It does so without reflection and
// without rendering configurations into maps.

// AppendJSON appends the event as a JSON object to dst: kind and seq always,
// then only the fields its kind populates — trial, fidelity and
// configuration on trial events; the result on TrialDone, IncumbentImproved,
// ParetoIncumbent and GuardrailViolation; the outcome on SessionDone; the
// summary on StreamCheckpoint and StreamLagged. A NaN or infinite float
// anywhere in the event is an error, returned with dst unchanged.
func (e Event) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.raw(`{"kind":`)
	w.str(string(e.Kind))
	w.raw(`,"seq":`)
	w.int(e.Seq)
	w.optInt(`,"trial":`, e.Trial)
	w.optFloat(`,"fidelity":`, e.Fidelity)
	if e.Config.Dims() > 0 { // an invalid or empty config is an empty map: omitted
		w.raw(`,"config":`)
		w.b = e.Config.appendJSON(w.b)
	}
	switch e.Kind {
	case TrialDone, IncumbentImproved, ParetoIncumbent:
		w.raw(`,"result":`)
		w.result(&e.Result)
		w.optFloat(`,"sim_time_used":`, e.SimTimeUsed)
	case GuardrailViolation:
		w.raw(`,"result":`)
		w.result(&e.Result)
		w.optFloat(`,"limit":`, e.Limit)
	case SessionDone:
		if e.Final != nil {
			w.raw(`,"final":`)
			w.tuningResult(e.Final)
		}
		if e.Err != nil {
			w.optStr(`,"error":`, e.Err.Error())
		}
	case StreamCheckpoint, StreamLagged:
		if e.Summary != nil {
			w.raw(`,"summary":`)
			w.summary(e.Summary)
		}
	}
	w.raw("}")
	return w.done(dst)
}

// jsonWriter appends JSON to b. err keeps the first failure, which can only
// be a non-finite float.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }
func (w *jsonWriter) str(s string) { w.b = appendJSONString(w.b, s) }
func (w *jsonWriter) int(n int)    { w.b = strconv.AppendInt(w.b, int64(n), 10) }

// done returns what was written past dst, or dst and the first error.
func (w *jsonWriter) done(dst []byte) ([]byte, error) {
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// float appends f as encoding/json does: the shortest 'f' form, or 'e' for
// magnitudes below 1e-6 or from 1e21 up with the exponent's leading zero
// dropped (1e-07 → 1e-7).
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("tune: JSON cannot encode %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// optInt, optFloat and optStr write key and value unless the value is the
// zero that omitempty drops.
func (w *jsonWriter) optInt(key string, n int) {
	if n != 0 {
		w.raw(key)
		w.int(n)
	}
}

func (w *jsonWriter) optFloat(key string, f float64) {
	if f != 0 {
		w.raw(key)
		w.float(f)
	}
}

func (w *jsonWriter) optStr(key, s string) {
	if s != "" {
		w.raw(key)
		w.str(s)
	}
}

func (w *jsonWriter) result(r *Result) {
	w.raw(`{"time":`)
	w.float(r.Time)
	w.optFloat(`,"cost":`, r.Cost)
	if r.Failed {
		w.raw(`,"failed":true`)
	}
	w.optStr(`,"fail_reason":`, r.FailReason)
	if len(r.Metrics) > 0 {
		w.raw(`,"metrics":`)
		w.floatMap(r.Metrics)
	}
	w.optFloat(`,"fidelity":`, r.Fidelity)
	w.raw("}")
}

func (w *jsonWriter) trials(ts []Trial) {
	w.raw("[")
	for i := range ts {
		if i > 0 {
			w.raw(",")
		}
		w.raw(`{"n":`)
		w.int(ts[i].N)
		w.raw(`,"config":`)
		w.b = ts[i].Config.appendJSON(w.b)
		w.raw(`,"result":`)
		w.result(&ts[i].Result)
		w.raw("}")
	}
	w.raw("]")
}

func (w *jsonWriter) tuningResult(r *TuningResult) {
	w.raw(`{"tuner":`)
	w.str(r.Tuner)
	w.raw(`,"target":`)
	w.str(r.Target)
	w.raw(`,"best":`)
	w.b = r.Best.appendJSON(w.b)
	w.raw(`,"best_result":`)
	w.result(&r.BestResult)
	if len(r.Trials) > 0 {
		w.raw(`,"trials":`)
		w.trials(r.Trials)
	}
	w.optFloat(`,"sim_time_used":`, r.SimTimeUsed)
	if len(r.Front) > 0 {
		w.raw(`,"pareto_front":`)
		w.trials(r.Front)
	}
	w.optInt(`,"guardrail_violations":`, r.GuardrailViolations)
	w.optInt(`,"drift_detections":`, r.DriftDetections)
	w.raw("}")
}

func (w *jsonWriter) summary(s *StreamSummary) {
	w.raw(`{"covered_through":`)
	w.int(s.CoveredThrough)
	w.raw(`,"trials_done":`)
	w.int(s.TrialsDone)
	w.optInt(`,"trials_pruned":`, s.TrialsPruned)
	w.optInt(`,"rungs_decided":`, s.RungsDecided)
	w.optFloat(`,"sim_time_used":`, s.SimTimeUsed)
	w.optInt(`,"best_trial":`, s.BestTrial)
	if len(s.BestConfig) > 0 {
		w.raw(`,"best_config":`)
		w.strMap(s.BestConfig)
	}
	if s.BestResult != nil {
		w.raw(`,"best_result":`)
		w.result(s.BestResult)
	}
	w.optInt(`,"pareto_points":`, s.ParetoPoints)
	w.optInt(`,"guardrail_violations":`, s.GuardrailViolations)
	w.optInt(`,"drift_detections":`, s.DriftDetections)
	w.optInt(`,"dropped":`, s.Dropped)
	w.raw("}")
}

// strMap writes m as a JSON object, its keys in byte order (encoding/json's
// map key order). It is written once per stream checkpoint: no memo.
func (w *jsonWriter) strMap(m map[string]string) {
	var buf [32]string // a configuration's knobs fit: no allocation
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.raw("{")
	for i, k := range keys {
		if i > 0 {
			w.raw(",")
		}
		w.str(k)
		w.raw(":")
		w.str(m[k])
	}
	w.raw("}")
}

// floatMap writes m as a JSON object, its keys in byte order. A session's
// trials report the same metric names, and each trial's map is written about
// five times (its trial_done event, the session_done trial list, the
// checkpoint log, the WAL and a segment), so the sorted, quoted key list is
// memoized per key count and reused while it fits: same length and every key
// found means the same key set. A miss rolls the output back and publishes the
// list of m's own keys.
func (w *jsonWriter) floatMap(m map[string]float64) {
	n := len(m)
	if n >= len(keyMemo) {
		w.keyed(sortedKeys(m), m)
		return
	}
	if kl := keyMemo[n].Load(); kl != nil && w.keyed(kl, m) {
		return
	}
	kl := sortedKeys(m)
	keyMemo[n].Store(kl)
	w.keyed(kl, m)
}

// keyMemo holds, per key count, the last key list floatMap published for maps
// of that count; indexing by count keeps two systems' metric sets (dbms and
// spark sessions run side by side) from evicting each other.
var keyMemo [65]atomic.Pointer[keyList] // maps of up to 64 keys

// keyList is a sorted key set, immutable once published: quoted[i] is key i
// as a JSON string and a colon, after a comma from the second key on.
type keyList struct {
	keys, quoted []string
}

func sortedKeys(m map[string]float64) *keyList {
	kl := &keyList{keys: make([]string, 0, len(m)), quoted: make([]string, len(m))}
	for k := range m {
		kl.keys = append(kl.keys, k)
	}
	slices.Sort(kl.keys)
	for i, k := range kl.keys {
		var q []byte
		if i > 0 {
			q = append(q, ',')
		}
		q = append(appendJSONString(q, k), ':')
		kl.quoted[i] = string(q)
	}
	return kl
}

// keyed writes m's values under kl's keys. It reports false, with w.b as it
// found it, when kl holds a key m lacks.
func (w *jsonWriter) keyed(kl *keyList, m map[string]float64) bool {
	start := len(w.b)
	w.raw("{")
	for i, k := range kl.keys {
		v, ok := m[k]
		if !ok {
			w.b = w.b[:start]
			return false
		}
		w.raw(kl.quoted[i])
		w.float(v)
	}
	w.raw("}")
	return true
}

// appendJSONString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and the HTML-sensitive <, > and & is copied as
// is; a string holding anything else — control bytes, non-ASCII, invalid
// UTF-8 — is rare on the event path and takes encoding/json's escaper.
func appendJSONString(dst []byte, s string) []byte {
	if !jsonSafe(s) {
		q, _ := json.Marshal(s) // a string always encodes
		return append(dst, q...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// jsonSafe reports whether s needs no escaping in a JSON string.
func jsonSafe[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if !jsonSafeSet[s[i]] {
			return false
		}
	}
	return true
}

// jsonSafeSet marks the bytes encoding/json writes unescaped in an
// HTML-safe string: printable ASCII but ", \, <, > and &.
var jsonSafeSet = func() (set [256]bool) {
	for b := ' '; b < 0x80; b++ {
		set[b] = true
	}
	for _, b := range `"\<>&` {
		set[b] = false
	}
	return set
}()
