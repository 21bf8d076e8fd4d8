// Package daemon is the HTTP/JSON tuning service: it accepts declarative
// session specs (repro.Spec), schedules them on a shared multi-session
// engine, streams each session's ordered event stream over server-sent
// events, and serves final results. cmd/autotuned is the thin binary
// around it.
//
// Endpoints:
//
//	POST   /sessions              submit a Spec, returns {"id": ...}
//	GET    /sessions              list session summaries
//	GET    /sessions/{id}         status, incumbent, final result
//	GET    /sessions/{id}/events  SSE stream, replayed from the first
//	                              event, closed after session_done
//	POST   /sessions/{id}/pause   pause at the next trial boundary
//	POST   /sessions/{id}/resume  resume a paused session
//	DELETE /sessions/{id}         stop a live session (it fails with a
//	                              cancellation error); delete a finished
//	                              one, releasing its event log
//	GET    /healthz               liveness probe with session, repository,
//	                              and evaluator-fleet summaries, and the
//	                              linalg kernel in use
//	GET    /metrics               runtime gauges (heap, allocation, GC,
//	                              goroutines) in Prometheus text
//
// With remote evaluators (Options.Evaluators, or registered at runtime) the
// daemon leases trial evaluations to an autotune-evaluator fleet through
// internal/dist — byte-identical event streams, distributed wall-clock:
//
//	GET    /evaluators            fleet health (per-evaluator routing state,
//	                              each evaluator's /healthz probed)
//	POST   /evaluators            register an evaluator: {"url": ...}
//
// With a repository directory (Options.RepoDir) the daemon is restartable
// state, not a stateless toy: every completed session is archived durably,
// archived history survives restarts, a spec with "warm_start": true seeds
// its tuner from the mapped nearest past workload, and the corpus is
// servable:
//
//	GET    /repository/sessions       list archived session summaries
//	GET    /repository/sessions/{id}  one full archived record
//	POST   /repository/sessions       archive a tune.SessionRecord directly
//	DELETE /repository/sessions/{id}  remove an archived record
//	POST   /repository/nearest        indexed nearest-workload lookup
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	repro "repro"
	"repro/internal/dist"
	"repro/internal/mathx/linalg"
	"repro/internal/obs"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

// Options configures the daemon.
type Options struct {
	// Workers bounds concurrently running sessions (default: GOMAXPROCS).
	Workers int
	// RepoDir, when set, is the directory of the durable tuning repository
	// (internal/tune/store layout). Completed sessions are archived there
	// and warm-started sessions transfer from it.
	RepoDir string
	// Evaluators are base URLs of autotune-evaluator processes whose worker
	// slots join every session's trial evaluation. More can be registered at
	// runtime via POST /evaluators; with none, sessions evaluate locally.
	Evaluators []string
	// MaxSessions caps unfinished sessions (pending + running + paused).
	// Past it POST /sessions is refused with 429 and a Retry-After hint —
	// admission control, so an overload sheds work at the door instead of
	// accumulating unbounded session state. 0 means unlimited.
	MaxSessions int
	// MaxQueue caps sessions waiting for a scheduler slot, independently of
	// MaxSessions (a deep queue of admitted-but-unstarted work is its own
	// overload signal). 0 means unlimited.
	MaxQueue int
	// EventBuffer is each session's event retention bound (engine ring
	// size): 0 = the engine default. New refuses a negative value.
	EventBuffer int
}

// sseWriteTimeout bounds each SSE write: a client that stops reading long
// enough to block the server past it is disconnected (its subscription is
// released) instead of pinning the handler forever.
const sseWriteTimeout = 30 * time.Second

// Server owns the engine, the session table, and the durable repository.
type Server struct {
	eng  *repro.Engine
	repo store.Store // nil without a RepoDir
	pool *dist.Pool  // always non-nil; empty without evaluators
	opts Options

	// drainCh is closed when a graceful drain begins: open SSE streams
	// write a terminal "draining" event and admission refuses new work.
	drainCh chan struct{}

	mu       sync.Mutex
	sessions map[string]*session
	order    []string
	nextID   int
	draining bool
	rejected int64 // sessions refused by admission control (429s)
	reserved int   // sessions admit let in that startSession has not yet put in the table
	resumed  int   // sessions resumed from checkpoints at startup
}

type session struct {
	ID      string
	Spec    repro.Spec
	Run     *repro.Run
	Created time.Time
	Resumed bool // restored from a checkpoint at daemon startup

	mu         sync.Mutex
	archiveID  int64 // repository id once archived
	archiveErr error
	ckptErr    error // outcome of the latest boundary checkpoint save
}

// New returns a daemon server scheduling sessions on its own engine. With a
// RepoDir it opens (or initializes) the durable repository there, recovering
// state from previous daemon lifetimes: the archived corpus is served again,
// and every in-flight session checkpoint left by the previous lifetime
// (crash or drain) is resubmitted with its observation history replayed, so
// interrupted sessions continue instead of vanishing.
func New(o Options) (*Server, error) {
	if o.EventBuffer < 0 {
		return nil, fmt.Errorf("daemon: event buffer must be ≥ 0 (0 = the default %d), got %d", repro.DefaultEventBuffer, o.EventBuffer)
	}
	s := &Server{
		eng:      repro.NewEngine(repro.EngineOptions{Workers: o.Workers}),
		pool:     dist.NewPool(o.Evaluators, dist.PoolOptions{Name: "autotuned"}),
		opts:     o,
		drainCh:  make(chan struct{}),
		sessions: map[string]*session{},
	}
	if o.RepoDir != "" {
		st, err := store.Open(o.RepoDir)
		if err != nil {
			return nil, err
		}
		s.repo = st
		s.resumeCheckpoints()
	}
	return s, nil
}

// resumeCheckpoints resubmits every session checkpoint the previous daemon
// lifetime left behind. Resume failures are per-session, not fatal: a
// checkpoint that no longer decodes or whose spec is invalid surfaces as a
// failed session (and its checkpoint is released), never as a daemon that
// will not start.
func (s *Server) resumeCheckpoints() {
	cps, err := s.repo.Checkpoints()
	if err != nil || len(cps) == 0 {
		return
	}
	for _, cp := range cps {
		var spec repro.Spec
		dec := json.NewDecoder(bytes.NewReader(cp.Spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil || spec.Validate() != nil {
			// The checkpoint is unusable; drop it rather than retry forever.
			_ = s.repo.DeleteCheckpoint(cp.SID)
			continue
		}
		replay := cp.Replay
		if _, err := s.startSession(spec, cp.SID, &replay, true); err != nil {
			_ = s.repo.DeleteCheckpoint(cp.SID)
			continue
		}
		s.mu.Lock()
		if _, n, ok := store.SplitSID(cp.SID); ok && n > int64(s.nextID) {
			s.nextID = int(n)
		}
		s.resumed++
		s.mu.Unlock()
	}
}

// Close releases the repository store (if any). Live sessions keep running;
// their archive attempts will fail onto the session record.
func (s *Server) Close() error {
	if s.repo != nil {
		return s.repo.Close()
	}
	return nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", obs.ServeMetrics)
	mux.HandleFunc("GET /evaluators", s.evaluators)
	mux.HandleFunc("POST /evaluators", s.addEvaluator)
	mux.HandleFunc("POST /sessions", s.create)
	mux.HandleFunc("GET /sessions", s.list)
	mux.HandleFunc("GET /sessions/{id}", s.get)
	mux.HandleFunc("GET /sessions/{id}/events", s.events)
	mux.HandleFunc("POST /sessions/{id}/pause", s.pause)
	mux.HandleFunc("POST /sessions/{id}/resume", s.resume)
	mux.HandleFunc("DELETE /sessions/{id}", s.stop)
	mux.HandleFunc("GET /repository/sessions", s.repoList)
	mux.HandleFunc("POST /repository/sessions", s.repoAdd)
	mux.HandleFunc("GET /repository/sessions/{id}", s.repoGet)
	mux.HandleFunc("DELETE /repository/sessions/{id}", s.repoDelete)
	mux.HandleFunc("POST /repository/nearest", s.repoNearest)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// healthz is the liveness probe, enriched with operational summaries: the
// session table by state, the repository, and the evaluator fleet. It does
// no network I/O, so a frozen evaluator cannot stall it: the fleet block is
// the pool's routing state (healthy = no consecutive failures), and GET
// /evaluators is where each evaluator is probed.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	type sessionSummary struct {
		Total   int `json:"total"`
		Pending int `json:"pending"`
		Running int `json:"running"`
		Paused  int `json:"paused"`
		Done    int `json:"done"`
		Failed  int `json:"failed"`
	}
	type repoSummaryz struct {
		Enabled  bool `json:"enabled"`
		Sessions int  `json:"sessions,omitempty"`
		// The feature index's rebuild history (store.IndexStats): a build
		// holds the store's exclusive lock, so it is a stall worth seeing.
		IndexBuilds      int64   `json:"index_builds,omitempty"`
		IndexBuildMSLast float64 `json:"index_build_ms_last,omitempty"`
		IndexPoints      int     `json:"index_points,omitempty"`
	}
	type fleetSummary struct {
		Configured int   `json:"configured"`
		Healthy    int   `json:"healthy"`
		InFlight   int64 `json:"in_flight"`
		Retries    int64 `json:"retries"`
	}
	// admissionSummary reports the backpressure state: the configured caps,
	// how many submissions they have refused, and whether a drain is under
	// way. memorySummary sums the per-session event-ring estimates — the
	// number the bounded-stream work keeps flat no matter how long sessions
	// run; the process heap is on GET /metrics, which reads it without
	// stopping the world on every health probe.
	type admissionSummary struct {
		MaxSessions int   `json:"max_sessions,omitempty"`
		MaxQueue    int   `json:"max_queue,omitempty"`
		Rejected    int64 `json:"rejected"`
		Draining    bool  `json:"draining"`
		Resumed     int   `json:"resumed,omitempty"`
	}
	type memorySummary struct {
		EventRingBytes   int `json:"event_ring_bytes"`
		EventSubscribers int `json:"event_subscribers"`
	}
	// scenarioSummary aggregates scenario-class progress across every
	// session the daemon holds. GuardrailViolations is the first-class
	// safety metric: a safety-tuned fleet alarms on it going nonzero.
	type scenarioSummary struct {
		ParetoPoints        int `json:"pareto_points"`
		GuardrailViolations int `json:"guardrail_violations"`
		DriftDetections     int `json:"drift_detections"`
	}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.order))
	for _, id := range s.order {
		sessions = append(sessions, s.sessions[id])
	}
	adm := admissionSummary{
		MaxSessions: s.opts.MaxSessions,
		MaxQueue:    s.opts.MaxQueue,
		Rejected:    s.rejected,
		Draining:    s.draining,
		Resumed:     s.resumed,
	}
	s.mu.Unlock()
	var sums sessionSummary
	var mem memorySummary
	var scen scenarioSummary
	sums.Total = len(sessions)
	for _, sess := range sessions {
		switch sess.Run.State() {
		case repro.RunPending:
			sums.Pending++
		case repro.RunRunning:
			sums.Running++
		case repro.RunPaused:
			sums.Paused++
		case repro.RunDone:
			sums.Done++
		case repro.RunFailed:
			sums.Failed++
		}
		mem.EventRingBytes += sess.Run.MemoryBytes()
		mem.EventSubscribers += sess.Run.Subscribers()
		p := sess.Run.Progress()
		scen.ParetoPoints += p.ParetoPoints
		scen.GuardrailViolations += p.GuardrailViolations
		scen.DriftDetections += p.DriftDetections
	}
	repo := repoSummaryz{Enabled: s.repo != nil}
	if s.repo != nil {
		repo.Sessions = s.repo.Len()
		ixs := s.repo.IndexStats()
		repo.IndexBuilds = ixs.Builds
		repo.IndexBuildMSLast = float64(ixs.LastBuild) / float64(time.Millisecond)
		repo.IndexPoints = ixs.Points
	}
	var fleet fleetSummary
	for _, h := range s.pool.State() {
		fleet.Configured++
		if h.Healthy {
			fleet.Healthy++
		}
		fleet.InFlight += h.InFlight
	}
	fleet.Retries = s.pool.Retries()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"sessions":   sums,
		"admission":  adm,
		"memory":     mem,
		"scenarios":  scen,
		"repository": repo,
		"evaluators": fleet,
		// Which path the numerical kernels under the GP tier take in this
		// process ("avx2" or "generic"); results are the same on both.
		"linalg_kernel": linalg.Kernel(),
	})
}

// evaluators reports the fleet's per-evaluator routing state, probing each
// evaluator's own health endpoint.
func (s *Server) evaluators(w http.ResponseWriter, r *http.Request) {
	health := s.pool.Health(r.Context())
	if health == nil {
		health = []dist.RemoteHealth{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"evaluators": health,
		"retries":    s.pool.Retries(),
	})
}

// addEvaluator registers one evaluator at runtime. Its slots join every
// session's evaluation at the next trial batch.
func (s *Server) addEvaluator(w http.ResponseWriter, r *http.Request) {
	var in struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding evaluator registration: %w", err))
		return
	}
	if in.URL == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("evaluator registration needs a url"))
		return
	}
	s.pool.Add(in.URL)
	writeJSON(w, http.StatusCreated, map[string]any{"url": in.URL, "slots": s.pool.Slots()})
}

func (s *Server) lookup(r *http.Request) (*session, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("no session %q", id)
	}
	return sess, nil
}

// admit enforces admission control for one new session: refused while
// draining (503) or past the configured session/queue caps (429, with a
// Retry-After hint — the client's release valves are waiting for sessions to
// finish and DELETEing finished ones). Counting walks the session table, so
// the decision reflects live run states, not stale counters. An admitted
// session holds a reserved place, counted as pending, from here until
// startSession puts it in the table (or create releases it on failure) — the
// two are separate critical sections, and without the reservation a burst
// between them would overshoot the caps.
func (s *Server) admit() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return http.StatusServiceUnavailable, fmt.Errorf("daemon is draining; in-flight sessions are being checkpointed for the next start")
	}
	if s.opts.MaxSessions > 0 || s.opts.MaxQueue > 0 {
		unfinished, pending := s.reserved, s.reserved
		for _, id := range s.order {
			switch s.sessions[id].Run.State() {
			case repro.RunDone, repro.RunFailed:
			case repro.RunPending:
				pending++
				unfinished++
			default:
				unfinished++
			}
		}
		if s.opts.MaxSessions > 0 && unfinished >= s.opts.MaxSessions {
			s.rejected++
			return http.StatusTooManyRequests,
				fmt.Errorf("session cap reached (%d unfinished, max %d); retry later or DELETE finished sessions", unfinished, s.opts.MaxSessions)
		}
		if s.opts.MaxQueue > 0 && pending >= s.opts.MaxQueue {
			s.rejected++
			return http.StatusTooManyRequests,
				fmt.Errorf("queue depth reached (%d pending, max %d); retry later", pending, s.opts.MaxQueue)
		}
	}
	s.reserved++
	return 0, nil
}

func (s *Server) create(w http.ResponseWriter, r *http.Request) {
	var spec repro.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return
	}
	if spec.WarmStart && s.repo == nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("warm_start requires the daemon to have a repository (start it with -repo)"))
		return
	}
	if code, err := s.admit(); code != 0 {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, err)
		return
	}
	sess, err := s.startSession(spec, "", nil, false)
	if err != nil {
		s.mu.Lock()
		s.reserved--
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{
		"id":     sess.ID,
		"name":   spec.Name(),
		"state":  string(sess.Run.State()),
		"url":    "/sessions/" + sess.ID,
		"events": "/sessions/" + sess.ID + "/events",
	})
}

// startSession builds and submits one session job — the shared path behind
// POST /sessions (fresh ids, no replay) and checkpoint resume at startup
// (preserved ids, replayed history). repro.JobOn wires the job to the
// repository (nil without one): history is read as the job is built, so
// sessions archived while this one runs do not retroactively change its
// transfer, and its state is checkpointed durably at admission (a queued
// session must survive a restart even before its first batch boundary) and
// at every batch/rung boundary after. A session id is spent even when the
// spec is then refused.
func (s *Server) startSession(spec repro.Spec, sid string, replay *tune.Replay, resumed bool) (*session, error) {
	if sid == "" {
		s.mu.Lock()
		s.nextID++
		sid = fmt.Sprintf("s%d", s.nextID)
		s.mu.Unlock()
	}
	sess := &session{ID: sid, Spec: spec, Created: time.Now(), Resumed: resumed}
	job, err := spec.JobOn(s.repo, sid, replay, func(op repro.StoreOp, n int64, err error) {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		switch op {
		case repro.Archived:
			sess.archiveID, sess.archiveErr = n, err
		case repro.Checkpointed:
			// Saves are state-based, so the next boundary retries a failed
			// one; until it succeeds the session reports checkpoint_error.
			sess.ckptErr = err
		}
	})
	if err != nil {
		return nil, err
	}
	// Every job carries the fleet backend bound to its own sysmodel. With an
	// empty fleet the backend advertises zero slots and the engine evaluates
	// locally; evaluators registered mid-session join at the next batch.
	job.Remote = s.pool.Backend(dist.SysModel{
		System:   spec.System,
		Workload: spec.Workload,
		Seed:     spec.Seed,
		Target:   spec.Target,
	})
	job.EventBuffer = s.opts.EventBuffer
	if s.repo != nil && replay == nil {
		job.Checkpoint(tune.CheckpointState{})
		if sess.ckptErr != nil {
			return nil, fmt.Errorf("checkpointing session at admission: %w", sess.ckptErr)
		}
	}
	// The session outlives the HTTP request by design; its lifetime is
	// managed through DELETE, not the request context.
	sess.Run = s.eng.SubmitContext(context.Background(), job)
	s.mu.Lock()
	s.sessions[sid] = sess
	s.order = append(s.order, sid)
	if !resumed {
		s.reserved-- // the place admit reserved is now a row of the table
	}
	s.mu.Unlock()
	if s.repo != nil {
		go s.reapCheckpoint(sess)
	}
	return sess, nil
}

// reapCheckpoint applies the checkpoint retention rules once the session
// finishes. Success and genuine failure release the checkpoint — a failed
// session resurrecting on every restart would fail forever. Cancellation
// keeps it: a drain's whole point is that the checkpoint outlives the
// process, and an operator DELETE releases it explicitly in its handler.
func (s *Server) reapCheckpoint(sess *session) {
	<-sess.Run.Done()
	if _, err := sess.Run.Result(); err == nil || !errors.Is(err, context.Canceled) {
		_ = s.repo.DeleteCheckpoint(sess.ID)
	}
}

// status is the wire form of one session's current state.
type status struct {
	ID      string         `json:"id"`
	Name    string         `json:"name"`
	Spec    repro.Spec     `json:"spec"`
	State   repro.RunState `json:"state"`
	Created time.Time      `json:"created"`
	// Resumed marks a session restored from a crash/drain checkpoint at
	// daemon startup (its Created is the resubmission time, not the
	// original admission).
	Resumed    bool `json:"resumed,omitempty"`
	TrialsDone int  `json:"trials_done"`
	// TrialsPruned and RungsDecided report multi-fidelity progress: how
	// many trials rung decisions early-stopped, over how many decisions
	// (zero for single-fidelity sessions).
	TrialsPruned int `json:"trials_pruned,omitempty"`
	RungsDecided int `json:"rungs_decided,omitempty"`
	// Scenario progress: Pareto points admitted to the front, guardrail
	// violations observed, and drift re-anchors (zero for plain sessions).
	ParetoPoints        int                 `json:"pareto_points,omitempty"`
	GuardrailViolations int                 `json:"guardrail_violations,omitempty"`
	DriftDetections     int                 `json:"drift_detections,omitempty"`
	Incumbent           *incumbent          `json:"incumbent,omitempty"`
	Result              *repro.TuningResult `json:"result,omitempty"`
	Error               string              `json:"error,omitempty"`
	// ArchivedAs is the repository id the finished session was archived
	// under (zero until archived or when the daemon has no repository).
	ArchivedAs int64 `json:"archived_as,omitempty"`
	// ArchiveError reports a failed archive attempt.
	ArchiveError string `json:"archive_error,omitempty"`
	// CheckpointError reports that the latest boundary checkpoint was not
	// made durable: a crash now would resume from an earlier boundary.
	CheckpointError string `json:"checkpoint_error,omitempty"`
}

type incumbent struct {
	Trial  int               `json:"trial"`
	Config map[string]string `json:"config"`
	Result tune.Result       `json:"result"`
}

func (sess *session) status() status {
	st := status{
		ID:      sess.ID,
		Name:    sess.Spec.Name(),
		Spec:    sess.Spec,
		State:   sess.Run.State(),
		Created: sess.Created,
		Resumed: sess.Resumed,
	}
	// Read after the state, so a finished session reports its final counts.
	p := sess.Run.Progress()
	st.TrialsDone, st.TrialsPruned, st.RungsDecided = p.TrialsDone, p.TrialsPruned, p.RungsDecided
	st.ParetoPoints, st.GuardrailViolations, st.DriftDetections = p.ParetoPoints, p.GuardrailViolations, p.DriftDetections
	if p.BestResult != nil {
		st.Incumbent = &incumbent{Trial: p.BestTrial, Config: p.BestConfig, Result: *p.BestResult}
	}
	if st.State == repro.RunDone || st.State == repro.RunFailed {
		res, err := sess.Run.Result()
		st.Result = res
		if err != nil {
			st.Error = err.Error()
		}
	}
	sess.mu.Lock()
	st.ArchivedAs = sess.archiveID
	if sess.archiveErr != nil {
		st.ArchiveError = sess.archiveErr.Error()
	}
	if sess.ckptErr != nil {
		st.CheckpointError = sess.ckptErr.Error()
	}
	sess.mu.Unlock()
	return st
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.order))
	for _, id := range s.order {
		sessions = append(sessions, s.sessions[id])
	}
	s.mu.Unlock()
	out := make([]status, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.status()
		out[i].Result = nil // summaries stay small; fetch /sessions/{id} for the result
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.status())
}

// events streams the session's ordered event log as server-sent events.
// From the start (no offset) the retained history replays first, then live
// events follow until session_done closes the stream; for sessions within
// the event buffer, reconnecting replays identically. Each event carries an
// `id:` line with its sequence number, so a reconnecting client resumes
// from where it left off by sending Last-Event-ID (or ?after=N) — it
// receives only the events past that point, or a synthetic
// stream_checkpoint summarizing what was compacted away in the meantime.
// A frame is "id: N\nevent: KIND\ndata: JSON\n\n", appended into one
// buffer the stream reuses (JSON by tune.Event.AppendJSON) and written and
// flushed once per event.
//
// The handler defends the daemon against its clients: every write runs
// under sseWriteTimeout (a blocked client is disconnected, not buffered
// indefinitely), and a graceful drain terminates the stream with a
// "draining" event telling the client to reconnect after the restart.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	rc := http.NewResponseController(w)
	var frame []byte // one event's frame; the stream reuses it
	write := func(ev tune.Event) bool {
		frame = append(frame[:0], "id: "...)
		frame = strconv.AppendInt(frame, int64(ev.Seq), 10)
		frame = append(frame, "\nevent: "...)
		frame = append(frame, ev.Kind...)
		frame = append(frame, "\ndata: "...)
		var err error
		if frame, err = ev.AppendJSON(frame); err != nil {
			return false
		}
		frame = append(frame, "\n\n"...)
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		if _, err := w.Write(frame); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	events := sess.Run.EventsSince(r.Context(), after)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			if !write(ev) {
				return
			}
			after = ev.Seq
		case <-s.drainCh:
			// Terminal: the session is being checkpointed; the client should
			// reconnect (with Last-Event-ID) against the next daemon start. The
			// frame repeats the last id this client was sent, so a reconnect
			// resumes past it instead of replaying from the start.
			write(tune.Event{Kind: tune.Draining, Seq: after})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) pause(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	sess.Run.Pause()
	writeJSON(w, http.StatusOK, map[string]string{"id": sess.ID, "state": string(sess.Run.State())})
}

func (s *Server) resume(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	sess.Run.Resume()
	writeJSON(w, http.StatusOK, map[string]string{"id": sess.ID, "state": string(sess.Run.State())})
}

// stop handles DELETE. On a live session it cancels the run but keeps the
// record so clients can observe the outcome; on a finished session it
// removes the record (and its event log) from the table — the release
// valve that keeps a long-lived daemon's memory bounded. Either way the
// session's resume checkpoint is released: an operator who deleted a
// session does not want it resurrected on the next restart.
func (s *Server) stop(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if s.repo != nil {
		_ = s.repo.DeleteCheckpoint(sess.ID)
	}
	state := sess.Run.State()
	if state == repro.RunDone || state == repro.RunFailed {
		s.mu.Lock()
		delete(s.sessions, sess.ID)
		for i, id := range s.order {
			if id == sess.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]string{"id": sess.ID, "state": "removed"})
		return
	}
	sess.Run.Stop()
	writeJSON(w, http.StatusOK, map[string]string{"id": sess.ID, "state": string(sess.Run.State())})
}

// Drain begins a graceful shutdown: admission refuses new sessions with
// 503, every open SSE stream terminates with a "draining" event, and every
// unfinished run is stopped at its next trial boundary. In-flight sessions
// keep their durable checkpoints (written at admission and every batch/rung
// boundary), so the next daemon start on the same repository resumes them
// with their observation history replayed. Drain waits for the runs to
// settle until ctx expires; it is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	sessions := make([]*session, 0, len(s.order))
	for _, id := range s.order {
		sessions = append(sessions, s.sessions[id])
	}
	s.mu.Unlock()
	if first {
		close(s.drainCh)
	}
	for _, sess := range sessions {
		switch sess.Run.State() {
		case repro.RunDone, repro.RunFailed:
		default:
			sess.Run.Stop()
		}
	}
	for _, sess := range sessions {
		select {
		case <-sess.Run.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// —— repository endpoints ——————————————————————————————————————————————————

// needRepo 404s repository routes on a daemon started without -repo.
func (s *Server) needRepo(w http.ResponseWriter) bool {
	if s.repo == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("this daemon has no repository (start it with -repo <dir>)"))
		return false
	}
	return true
}

func (s *Server) repoID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("repository ids are numeric: %w", err))
		return 0, false
	}
	return id, true
}

func (s *Server) repoList(w http.ResponseWriter, r *http.Request) {
	if !s.needRepo(w) {
		return
	}
	// Summaries come straight off the store's segment indexes — no record
	// payload is read, so listing stays cheap at any corpus size.
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.repo.Summaries()})
}

// repoNearest answers a workload-similarity probe against the store's
// feature index: given a system and a feature map, it returns the archived
// session whose workload is nearest under the repository's scaled feature
// distance — the same ordering warm start uses — without materializing the
// corpus.
func (s *Server) repoNearest(w http.ResponseWriter, r *http.Request) {
	if !s.needRepo(w) {
		return
	}
	var in struct {
		System   string             `json:"system"`
		Features map[string]float64 `json:"features"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding nearest query: %w", err))
		return
	}
	if in.System == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("a nearest query names a system"))
		return
	}
	sum, ok := s.repo.Nearest(in.System, in.Features)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no archived sessions for system %q", in.System))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session": sum,
		"url":     fmt.Sprintf("/repository/sessions/%d", sum.ID),
	})
}

func (s *Server) repoGet(w http.ResponseWriter, r *http.Request) {
	if !s.needRepo(w) {
		return
	}
	id, ok := s.repoID(w, r)
	if !ok {
		return
	}
	st, ok, err := s.repo.Get(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no repository session %d", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// repoAdd archives a session record submitted directly — the import path
// for history gathered elsewhere (another daemon, a CLI run, a migration).
// It accepts both a bare tune.SessionRecord and the {"id", "record"} wire
// form that GET /repository/sessions/{id} serves, so archived history
// pipes between daemons verbatim (the id is reassigned by this store).
func (s *Server) repoAdd(w http.ResponseWriter, r *http.Request) {
	if !s.needRepo(w) {
		return
	}
	var in struct {
		tune.SessionRecord
		ID     *int64              `json:"id"`
		Record *tune.SessionRecord `json:"record"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding session record: %w", err))
		return
	}
	rec := in.SessionRecord
	if in.Record != nil {
		rec = *in.Record
	}
	if rec.System == "" || len(rec.Trials) == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("a session record needs a system and at least one trial"))
		return
	}
	id, err := s.repo.Append(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "url": fmt.Sprintf("/repository/sessions/%d", id)})
}

func (s *Server) repoDelete(w http.ResponseWriter, r *http.Request) {
	if !s.needRepo(w) {
		return
	}
	id, ok := s.repoID(w, r)
	if !ok {
		return
	}
	if err := s.repo.Delete(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": "removed"})
}
