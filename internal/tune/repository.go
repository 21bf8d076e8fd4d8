package tune

import (
	"fmt"
	"math"
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

// Corpus is where a session reads past sessions from; the in-memory
// *Repository and the on-disk store both implement it. Repository-driven
// tuners (OtterTune, the recommender) are built on a Snapshot of one.
type Corpus interface {
	// ForSystem returns the sessions recorded against the named system, in
	// insertion order.
	ForSystem(system string) ([]SessionRecord, error)
}

// WarmSource supplies warm-start seed configurations for a new session. Both
// the in-memory *Repository and the segmented on-disk store implement it, so
// the daemon can warm-start from a million-session archive without
// materializing it.
type WarmSource interface {
	// WarmConfigs returns the k best configurations of the nearest
	// transferable past session of the named system, or nil when nothing
	// transfers. Must behave exactly like the free WarmConfigs.
	WarmConfigs(system string, features map[string]float64, space *Space, k int) []Config
}

// WarmSourceFunc adapts a function to WarmSource.
type WarmSourceFunc func(system string, features map[string]float64, space *Space, k int) []Config

// WarmConfigs implements WarmSource.
func (f WarmSourceFunc) WarmConfigs(system string, features map[string]float64, space *Space, k int) []Config {
	return f(system, features, space, k)
}

// Repository is the plain in-memory corpus: a slice of past sessions. It
// keeps no index — lookups over it are the linear-scan functions
// (RankSessions, NearestSession, WarmConfigs) that the store's feature index
// is tested against.
type Repository struct {
	Sessions []SessionRecord `json:"sessions"`
}

// Snapshot reads the sessions of targetName's system ("system/workload") out
// of c into an in-memory repository: a tuner built on it sees history as of
// now, and a read error surfaces here instead of inside a session. A nil
// corpus snapshots to a nil (empty) repository.
func Snapshot(c Corpus, targetName string) (*Repository, error) {
	if c == nil {
		return nil, nil
	}
	system, _ := SplitTargetName(targetName)
	if system == "" {
		return nil, fmt.Errorf("tune: a corpus snapshot needs the target's name (\"system/workload\") to select its system's sessions, got %q", targetName)
	}
	sessions, err := c.ForSystem(system)
	if err != nil {
		return nil, fmt.Errorf("tune: reading past %s sessions: %w", system, err)
	}
	return &Repository{Sessions: sessions}, nil
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

// ForSystem implements Corpus; in memory it cannot fail. A nil repository
// holds nothing.
func (r *Repository) ForSystem(system string) ([]SessionRecord, error) {
	if r == nil {
		return nil, nil
	}
	var out []SessionRecord
	for _, s := range r.Sessions {
		if s.System == system {
			out = append(out, s)
		}
	}
	return out, nil
}

// WarmConfigs implements WarmSource with the free WarmConfigs.
func (r *Repository) WarmConfigs(system string, features map[string]float64, space *Space, k int) []Config {
	return WarmConfigs(r, system, features, space, k)
}
