package tune

import (
	"math"
	"sort"
)

// TrialRecord is the serializable form of one observed trial: the unit-cube
// configuration vector, the objective, and the runtime metrics. Records are
// space-agnostic; the owning SessionRecord names the space via ParamNames so
// consumers can verify compatibility.
type TrialRecord struct {
	Vector  []float64          `json:"vector"`
	Time    float64            `json:"time"`
	Failed  bool               `json:"failed,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Fidelity marks a partial-fidelity evaluation (zero = full). Partial
	// trials measured a cheaper workload, so best-trial selection and
	// transfer skip them.
	Fidelity float64 `json:"fidelity,omitempty"`
}

// fullFidelity mirrors Result.FullFidelity for serialized trials.
func (t TrialRecord) fullFidelity() bool { return t.Fidelity <= 0 || t.Fidelity >= 1 }

// SessionRecord is one past tuning session over a named workload: what
// OtterTune calls a "workload" entry in its repository.
type SessionRecord struct {
	System     string             `json:"system"`
	Workload   string             `json:"workload"`
	ParamNames []string           `json:"param_names"`
	Features   map[string]float64 `json:"features,omitempty"`
	Trials     []TrialRecord      `json:"trials"`
}

// BestTrial returns the index of the best non-failed trial, or -1.
func (s *SessionRecord) BestTrial() int {
	best, at := math.Inf(1), -1
	for i, t := range s.Trials {
		if !t.Failed && t.fullFidelity() && t.Time < best {
			best, at = t.Time, i
		}
	}
	return at
}

// Repository is a corpus of past tuning sessions. Machine learning tuners
// reuse it for workload mapping and transfer; recommendation tuners seed new
// jobs from the most similar past job.
type Repository struct {
	Sessions []SessionRecord `json:"sessions"`

	// Lazy feature-space index behind the indexed lookup methods
	// (NearestSession/RankSessions/WarmConfigs). Synced against Sessions on
	// first indexed use and after every append; results are bit-identical to
	// the linear-scan functions of the same names, which remain the oracle.
	ci    *CorpusIndex
	ciLen int
}

// Add appends a session record.
func (r *Repository) Add(rec SessionRecord) { r.Sessions = append(r.Sessions, rec) }

// NewSessionRecord converts a finished tuning result into the serializable
// session record archived in repositories.
func NewSessionRecord(system, workload string, features map[string]float64, tr *TuningResult) SessionRecord {
	rec := SessionRecord{System: system, Workload: workload, Features: features}
	if len(tr.Trials) > 0 {
		rec.ParamNames = tr.Trials[0].Config.Space().Names()
	}
	for _, t := range tr.Trials {
		rec.Trials = append(rec.Trials, TrialRecord{
			Vector:   t.Config.Vector(),
			Time:     t.Result.Time,
			Failed:   t.Result.Failed,
			Metrics:  t.Result.Metrics,
			Fidelity: t.Result.Fidelity,
		})
	}
	return rec
}

// AddResult converts a finished tuning result into a session record.
func (r *Repository) AddResult(system, workload string, features map[string]float64, tr *TuningResult) {
	r.Add(NewSessionRecord(system, workload, features, tr))
}

// ForSystem returns the sessions recorded against the named system.
func (r *Repository) ForSystem(system string) []SessionRecord {
	var out []SessionRecord
	for _, s := range r.Sessions {
		if s.System == system {
			out = append(out, s)
		}
	}
	return out
}

// SimilarSessions ranks sessions of the given system by Euclidean distance
// between feature maps (missing keys treated as zero), nearest first.
func (r *Repository) SimilarSessions(system string, features map[string]float64) []SessionRecord {
	sessions := r.ForSystem(system)
	type scored struct {
		rec  SessionRecord
		dist float64
	}
	sc := make([]scored, 0, len(sessions))
	for _, s := range sessions {
		sc = append(sc, scored{s, featureDistance(features, s.Features)})
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].dist < sc[j].dist })
	out := make([]SessionRecord, len(sc))
	for i, s := range sc {
		out[i] = s.rec
	}
	return out
}

func featureDistance(a, b map[string]float64) float64 {
	keys := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	var s float64
	for k := range keys {
		d := a[k] - b[k]
		s += d * d
	}
	return math.Sqrt(s)
}
