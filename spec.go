package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

// Spec declaratively describes one tuning session: which system/workload
// to tune, with which algorithm, under what budget and seed. Specs are
// plain JSON-serializable data — they round-trip through encoding/json —
// which is what lets remote clients submit sessions to the HTTP daemon
// and lets runs be reproduced exactly from their recorded spec. Any names
// added through RegisterTarget/RegisterTuner are accepted.
type Spec struct {
	// System and Workload name the target (see Systems and Workloads).
	System   string `json:"system"`
	Workload string `json:"workload"`
	// Tuner names the tuning approach (see Tuners).
	Tuner string `json:"tuner"`
	// Seed drives both the target's noise stream and the tuner's
	// randomness. A spec with the same seed always produces the same
	// trials, result, and event sequence, at any parallelism.
	Seed int64 `json:"seed"`
	// Budget caps the session's real runs and simulated time.
	Budget Budget `json:"budget"`
	// Target tweaks target construction (scale, fleet, tenancy).
	Target TargetOptions `json:"target,omitzero"`
	// Proxy configures the scaled replica for the "scaled-proxy" tuner:
	// the same system and workload rebuilt at the given scale.
	Proxy *ProxySpec `json:"proxy,omitempty"`
	// Parallel is the worker count for batch trial evaluation within the
	// session (0/1 = sequential; results identical at any value).
	Parallel int `json:"parallel,omitempty"`
	// Memo enables the config-keyed result memo cache for this session.
	Memo bool `json:"memo,omitempty"`
	// WarmStart seeds the session's proposer with the best configurations
	// transferred from the mapped nearest past workload of the same system
	// in the store the job is built on (see JobOn and tune.WarmConfigs). It
	// requires an ask/tell tuner (every tuner but the adaptive family); over
	// an empty repository, or with no store at all, it degrades to a cold
	// start.
	WarmStart bool `json:"warm_start,omitempty"`
	// Fidelity, when set, runs the session as a multi-fidelity schedule:
	// successive-halving/Hyperband brackets over the tuner's proposals,
	// screening configurations cheaply at low fidelity and promoting only
	// the survivors to full-cost runs (TrialPruned events mark the
	// early-stopped trials). It requires an ask/tell tuner and a target
	// with a fidelity-aware evaluation path.
	Fidelity *FidelitySpec `json:"fidelity,omitempty"`
	// Pareto opts the session into multi-objective latency-vs-cost tuning:
	// the tuner is fanned across scalarization weights (one differently
	// seeded sub-search per weight, see tune.MultiObjectiveTuner) and the
	// session tracks the Pareto front over full-fidelity trials, emitting a
	// ParetoIncumbent event whenever a trial joins it. Requires an ask/tell
	// tuner; incompatible with Fidelity.
	Pareto bool `json:"pareto,omitempty"`
	// Guardrail, when > 0, is the session's objective guardrail: the tuner
	// is wrapped in a surrogate safety screen (tune.GuardrailTuner) that
	// vetoes configurations predicted to exceed it, and every trial that
	// exceeds it anyway is counted and emitted as a GuardrailViolation
	// event. Requires an ask/tell tuner; incompatible with Fidelity.
	Guardrail float64 `json:"guardrail,omitempty"`
	// DriftDetect arms workload-drift detection (tune.DriftDetectTuner):
	// when the observed objective stream regresses persistently against the
	// incumbent, the session re-anchors — discards the stale incumbent,
	// emits DriftDetected, and restarts the proposer stack (including any
	// warm-start seeding) fresh against the shifted workload. Requires an
	// ask/tell tuner; incompatible with Fidelity. Pair with a drifting
	// workload (e.g. dbms "oltp-olap-shift" or "diurnal").
	DriftDetect bool `json:"drift_detect,omitempty"`
	// Surrogate selects the GP surrogate tier for the model-based tuners
	// (ituned, ottertune) and the trial-count thresholds at which a session
	// switches exact → sparse → RFF. nil means auto with default
	// thresholds; below the sparse threshold the exact tier runs the
	// historical code path, so sessions recorded without this field replay
	// byte-identically. Carried on the wire form so a recorded spec pins
	// its tier schedule.
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`
}

// FidelitySpec configures multi-fidelity tuning for a session (see
// tune.Schedule). Every schedule climbs the ladder 1/9 → 1/3 → 1.
type FidelitySpec struct {
	// Strategy selects the bracket schedule: "hyperband" (default) cycles
	// full Hyperband sweeps; "halving" repeats the single most exploratory
	// successive-halving bracket.
	Strategy string `json:"strategy,omitempty"`
}

// validate rejects an unknown strategy with a descriptive error.
func (f *FidelitySpec) validate() error {
	switch f.Strategy {
	case "", tune.StrategyHyperband, tune.StrategyHalving:
		return nil
	}
	return fmt.Errorf("repro: unknown fidelity strategy %q (have %s, %s)",
		f.Strategy, tune.StrategyHyperband, tune.StrategyHalving)
}

// WarmSeeds is how many transferred configurations a warm-started session
// proposes before its tuner takes over.
const WarmSeeds = 3

// ProxySpec describes the scaled-down replica used by the scaled-proxy
// tuner: the spec's system and workload rebuilt at ScaleGB (and optionally
// Nodes), seeded independently of the full-scale target.
type ProxySpec struct {
	ScaleGB float64 `json:"scale_gb"`
	Nodes   int     `json:"nodes,omitempty"`
}

// Name returns the session's display name, "system/workload/tuner".
func (s Spec) Name() string {
	return s.System + "/" + s.Workload + "/" + s.Tuner
}

// Validate checks the spec against the registries and option ranges,
// returning a descriptive error for the first problem found.
func (s Spec) Validate() error {
	if s.System == "" || s.Workload == "" || s.Tuner == "" {
		return fmt.Errorf("repro: spec requires system, workload, and tuner (got %q, %q, %q)", s.System, s.Workload, s.Tuner)
	}
	wls := Workloads(s.System)
	if wls == nil {
		return fmt.Errorf("repro: unknown system %q (have %s)", s.System, strings.Join(Systems(), ", "))
	}
	// An empty declared list means the factory accepts open-ended workload
	// names; membership is then the factory's call at build time.
	if len(wls) > 0 {
		known := false
		for _, wl := range wls {
			if wl == s.Workload {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("repro: unknown %s workload %q (have %s)", s.System, s.Workload, strings.Join(wls, ", "))
		}
	}
	if _, _, ok := TunerInfo(s.Tuner); !ok {
		return fmt.Errorf("repro: unknown tuner %q (have %s)", s.Tuner, strings.Join(Tuners(), ", "))
	}
	// A session without a positive trial cap would complete instantly
	// with zero trials and the default config — a silent no-op a remote
	// client would mistake for success. Trials caps the run count even
	// under a sim-time budget (sim_time only tightens it).
	if s.Budget.Trials <= 0 {
		return fmt.Errorf("repro: spec requires budget.trials > 0, got %d", s.Budget.Trials)
	}
	if !(s.Budget.SimTime >= 0) {
		return fmt.Errorf("repro: budget sim_time must be ≥ 0, got %v", s.Budget.SimTime)
	}
	if s.Parallel < 0 {
		return fmt.Errorf("repro: parallel must be ≥ 0, got %d", s.Parallel)
	}
	if err := s.Target.validate(); err != nil {
		return err
	}
	if s.Proxy != nil {
		if !(s.Proxy.ScaleGB > 0) {
			return fmt.Errorf("repro: proxy scale_gb must be > 0, got %v", s.Proxy.ScaleGB)
		}
		if s.Proxy.Nodes < 0 {
			return fmt.Errorf("repro: proxy nodes must be ≥ 0, got %d", s.Proxy.Nodes)
		}
	}
	if s.Fidelity != nil {
		if err := s.Fidelity.validate(); err != nil {
			return err
		}
	}
	if s.Guardrail < 0 {
		return fmt.Errorf("repro: guardrail must be ≥ 0 (0 = off), got %v", s.Guardrail)
	}
	// Rung promotion on scalarized or screened objectives would be silently
	// different semantics: DESIGN.md §2, "Fidelity × scenario wrappers".
	if s.Fidelity != nil && (s.Pareto || s.Guardrail > 0 || s.DriftDetect) {
		return fmt.Errorf("repro: pareto, guardrail, and drift_detect are incompatible with a fidelity schedule")
	}
	if err := s.Surrogate.Validate(); err != nil {
		return err
	}
	return nil
}

// StoreOp names one dealing a job built by JobOn has with its store, as
// handed to JobOn's report callback.
type StoreOp int

const (
	// WarmStarted: n seed configurations were transferred from the nearest
	// past workload (0 = cold start). Reported while the job is built.
	WarmStarted StoreOp = iota
	// Archived: the finished session was appended as repository id n, or the
	// append failed with err.
	Archived
	// Checkpointed: a boundary state of n trials was saved, or the save
	// failed with err — a crash now would resume from an earlier boundary.
	Checkpointed
)

// Job materializes the spec with no repository behind it: JobOn(nil, ...).
func (s Spec) Job() (Job, error) { return s.JobOn(nil, "", nil, nil) }

// JobOn is the one place a session meets its repository: it builds the
// spec's job against an open store (nil = none). The store is the corpus
// repository-driven tuners snapshot while the job is built, the source of
// WarmStart's seeds, and where the finished session's record is appended.
// Given a session id, the job is also wired for crash-resume: its state is
// saved under that id at every batch boundary (the hook is state-based, so
// calling job.Checkpoint with an empty state saves the admission-time
// checkpoint), and replay (which may be nil) is the history a resumed
// session feeds back first. report (which may be nil) hears every outcome —
// see StoreOp; Archived and Checkpointed arrive on the session's goroutine.
// The caller owns the store and closes it after the run.
func (s Spec) JobOn(st store.Store, sid string, replay *Replay, report func(op StoreOp, n int64, err error)) (Job, error) {
	if report == nil {
		report = func(StoreOp, int64, error) {}
	}
	var warm tune.WarmSource
	var archive func(SessionRecord)
	if st != nil {
		warm = tune.WarmSourceFunc(func(system string, features map[string]float64, space *tune.Space, k int) []tune.Config {
			seeds := st.WarmConfigs(system, features, space, k)
			report(WarmStarted, int64(len(seeds)), nil)
			return seeds
		})
		archive = func(rec SessionRecord) {
			id, err := st.Append(rec)
			report(Archived, id, err)
		}
	}
	job, err := s.JobWithWarm(st, warm, archive) // a nil store is a nil corpus
	if err != nil || st == nil || sid == "" {
		return job, err
	}
	rawSpec, err := json.Marshal(s)
	if err != nil {
		return Job{}, fmt.Errorf("repro: encoding spec for checkpointing: %w", err)
	}
	job.Replay = replay
	job.Checkpoint = func(cs CheckpointState) {
		report(Checkpointed, int64(len(cs.Trials)), st.SaveCheckpoint(store.SessionCheckpoint{
			SID: sid, Spec: rawSpec, Replay: cs.Replay(), Trials: len(cs.Trials), UpdatedAt: time.Now(),
		}))
	}
	return job, nil
}

// JobWithWarm materializes the spec against explicit sources: corpus (which
// may be nil) is what a repository-driven tuner's builder reads its snapshot
// of past sessions from, warm (which may be nil) answers WarmStart's
// nearest-workload transfer query, and archive (which may be nil) receives
// the finished session's record after a successful run. JobOn is the caller
// for a store; this form remains for harnesses that decorate the sources.
func (s Spec) JobWithWarm(corpus tune.Corpus, warm tune.WarmSource, archive func(SessionRecord)) (Job, error) {
	if err := s.Validate(); err != nil {
		return Job{}, err
	}
	target, err := NewTarget(s.System, s.Workload, s.Seed, s.Target)
	if err != nil {
		return Job{}, err
	}
	if corpus != nil {
		corpus = &readOnce{corpus: corpus, read: map[string]corpusRead{}}
	}
	topt := TunerOptions{Seed: s.Seed, Repo: corpus, TargetName: target.Name(), Surrogate: s.Surrogate}
	if s.Proxy != nil {
		po := s.Target
		po.ScaleGB = s.Proxy.ScaleGB
		if s.Proxy.Nodes > 0 {
			po.Nodes = s.Proxy.Nodes
		}
		// The replica gets its own derived seed so its simulations draw a
		// noise stream independent of the full-scale target's.
		proxy, err := NewTarget(s.System, s.Workload, s.Seed+1, po)
		if err != nil {
			return Job{}, fmt.Errorf("repro: building proxy target: %w", err)
		}
		topt.Proxy = proxy
	}
	tuner, err := NewTuner(s.Tuner, topt)
	if err != nil {
		return Job{}, err
	}
	// Every wrapper below composes over the ask/tell form. Only the adaptive
	// family lacks one, on purpose: its trial is a controlled run, not a
	// configuration (DESIGN.md §2, "Why the adaptive family stays outside").
	noAskTell := fmt.Errorf("repro: tuner %q has no ask/tell form: pareto, guardrail, warm_start, fidelity and drift_detect cannot wrap it", s.Tuner)
	bt, batch := tuner.(tune.BatchTuner)
	if !batch && (s.Pareto || s.Guardrail > 0 || s.WarmStart || s.Fidelity != nil || s.DriftDetect) {
		return Job{}, noAskTell
	}
	// Scenario wrapper order, inside out: base tuner → pareto fan-out →
	// guardrail screen → warm-start seeding → drift detection. The guardrail
	// screens everything the sweep proposes; warm seeds flow through the
	// screen as evidence; the drift detector sits outermost so a re-anchor
	// rebuilds the whole stack (screen, seeds, and all) fresh.
	if s.Pareto {
		subs := []tune.BatchTuner{bt}
		for i := 1; i < len(tune.DefaultParetoWeights); i++ {
			// Each scalarization weight gets its own differently seeded
			// sub-search so the design phases explore distinct points.
			sopt := topt
			sopt.Seed = s.Seed + int64(i)
			sub, err := NewTuner(s.Tuner, sopt)
			if err != nil {
				return Job{}, err
			}
			sbt, ok := sub.(tune.BatchTuner)
			if !ok {
				return Job{}, noAskTell
			}
			subs = append(subs, sbt)
		}
		if bt, err = tune.MultiObjectiveTuner(subs, tune.DefaultParetoWeights); err != nil {
			return Job{}, err
		}
	}
	if s.Guardrail > 0 {
		if bt, err = tune.GuardrailTuner(bt, s.Guardrail); err != nil {
			return Job{}, err
		}
	}
	if s.WarmStart {
		var features map[string]float64
		if d, ok := target.(tune.Describer); ok {
			features = d.WorkloadFeatures()
		}
		var seeds []tune.Config
		if warm != nil {
			seeds = warm.WarmConfigs(s.System, features, target.Space(), WarmSeeds)
		}
		bt = tune.WarmStartTuner(bt, seeds)
	}
	if s.DriftDetect {
		bt = tune.DriftDetectTuner(bt)
	}
	if batch {
		tuner = bt
	}
	if s.Fidelity != nil {
		// Validate keeps fidelity apart from the three scenario wrappers.
		if tuner, err = tune.NewMultiFidelity(bt, s.Fidelity.Strategy, s.Seed); err != nil {
			return Job{}, err
		}
	}
	// What the session's first step would refuse — a cost model on the wrong
	// system, a budget (or Pareto share of one) too small to train on, an
	// online controller on a target without epochs, a fidelity schedule on a
	// target without a partial path — is refused here, with the same message.
	if err := tune.CheckTuner(tuner, target, s.Budget); err != nil {
		return Job{}, err
	}
	return Job{
		Name:     s.Name(),
		Tuner:    tuner,
		Target:   target,
		Budget:   s.Budget,
		Parallel: s.Parallel,
		Memo:     s.Memo,
		System:   s.System,
		Workload: s.Workload,
		Archive:  archive,
	}, nil
}

// readOnce reads each system's past sessions from corpus at most once, on
// first use, so every tuner one build makes (a Pareto sweep makes one per
// weight) is built on the same history.
type readOnce struct {
	corpus tune.Corpus
	read   map[string]corpusRead
}

type corpusRead struct {
	sessions []SessionRecord
	err      error
}

// ForSystem implements tune.Corpus.
func (c *readOnce) ForSystem(system string) ([]SessionRecord, error) {
	r, ok := c.read[system]
	if !ok {
		r.sessions, r.err = c.corpus.ForSystem(system)
		c.read[system] = r
	}
	return r.sessions, r.err
}

// defaultEngine serves package-level Start calls: one shared scheduler
// sized to the machine.
var defaultEngine = sync.OnceValue(func() *Engine {
	return engine.New(engine.Options{})
})

// Start materializes spec and submits it to the shared default engine,
// returning the live session handle. The handle's Events stream delivers
// TrialStarted/TrialDone/IncumbentImproved/SessionDone in trial order, and
// Pause/Resume/Stop control the run mid-flight. For a fixed spec and seed
// the final result equals what the blocking path (NewTarget + NewTuner +
// Tune) returns, and the event sequence is byte-identical at any Parallel.
// Cancelling ctx stops the run.
func Start(ctx context.Context, spec Spec) (*Run, error) {
	return StartOn(ctx, defaultEngine(), spec)
}

// StartOn is Start on a caller-owned engine — for bounding concurrent
// sessions with one's own scheduler. Neither touches a repository: a session
// that reads or feeds one is built with JobOn and submitted to an engine.
func StartOn(ctx context.Context, e *Engine, spec Spec) (*Run, error) {
	job, err := spec.Job()
	if err != nil {
		return nil, err
	}
	return e.SubmitContext(ctx, job), nil
}
