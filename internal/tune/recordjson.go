package tune

// The repository's record encoders. The store writes every trial of a
// session up to three times — a checkpoint line, a WAL line and a segment
// payload — and writes each through these appenders, which share the event
// encoder's jsonWriter: exactly the bytes json.Marshal writes for the json
// tags on SessionRecord, TrialRecord and ReplayTrial (a nil slice is null, an
// empty one [], omitempty only where tagged), without reflection. A NaN or
// infinite float is an error, as it is for json.Marshal.

// AppendJSON appends the record as a JSON object to dst. A NaN or infinite
// float anywhere in it is an error, returned with dst unchanged.
func (s *SessionRecord) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.raw(`{"system":`)
	w.str(s.System)
	w.raw(`,"workload":`)
	w.str(s.Workload)
	w.raw(`,"param_names":`)
	if s.ParamNames == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i, name := range s.ParamNames {
			if i > 0 {
				w.raw(",")
			}
			w.str(name)
		}
		w.raw("]")
	}
	if len(s.Features) > 0 {
		w.raw(`,"features":`)
		w.floatMap(s.Features)
	}
	w.raw(`,"trials":`)
	if s.Trials == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range s.Trials {
			if i > 0 {
				w.raw(",")
			}
			w.trialRecord(&s.Trials[i])
		}
		w.raw("]")
	}
	w.raw("}")
	return w.done(dst)
}

func (w *jsonWriter) trialRecord(t *TrialRecord) {
	w.raw(`{"vector":`)
	w.floats(t.Vector)
	w.raw(`,"time":`)
	w.float(t.Time)
	if t.Failed {
		w.raw(`,"failed":true`)
	}
	if len(t.Metrics) > 0 {
		w.raw(`,"metrics":`)
		w.floatMap(t.Metrics)
	}
	w.optFloat(`,"fidelity":`, t.Fidelity)
	w.raw("}")
}

// AppendReplayTrialsJSON appends ts as a JSON array to dst, null when ts is
// nil. A NaN or infinite float anywhere in it is an error, returned with dst
// unchanged.
func AppendReplayTrialsJSON(dst []byte, ts []ReplayTrial) ([]byte, error) {
	w := jsonWriter{b: dst}
	if ts == nil {
		w.raw("null")
		return w.done(dst)
	}
	w.raw("[")
	for i := range ts {
		if i > 0 {
			w.raw(",")
		}
		w.raw(`{"vector":`)
		w.floats(ts[i].Vector)
		w.raw(`,"result":`)
		w.result(&ts[i].Result)
		w.raw("}")
	}
	w.raw("]")
	return w.done(dst)
}

// floats writes fs as a JSON array, null when fs is nil.
func (w *jsonWriter) floats(fs []float64) {
	if fs == nil {
		w.raw("null")
		return
	}
	w.raw("[")
	for i, f := range fs {
		if i > 0 {
			w.raw(",")
		}
		w.float(f)
	}
	w.raw("]")
}
