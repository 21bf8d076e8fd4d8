package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tune"
)

// This file is the session-checkpoint store: the crash-resume state of
// in-flight tuning sessions, persisted alongside the archive so a restarted
// daemon can pick interrupted work back up. Checkpoints are not WAL records —
// each session owns an append-only log, checkpoints/<sid>.jsonl, of the same
// appendLog type as wal.jsonl (fs.go): a header line {sid, spec, updated_at},
// then one line per batch boundary carrying only the trials the log does not
// hold yet plus runs_reserved. Every line is enveloped as
// {"crc":<IEEE CRC-32 of body>,"body":{...}}, so a damaged line ends the log
// instead of replaying as different trials.
//
// Flush policy: every SaveCheckpoint returns only after its bytes are
// fsynced — one fsync per boundary, on the driver goroutine that called it,
// never deferred, coalesced or skipped; a save that creates the file (the
// admission save) additionally fsyncs the directory. The loss bound after a
// crash is at most the batch in flight.
//
// SaveCheckpoint is state-based ("make this state durable"): it appends the
// suffix of cp.Replay.Trials past what the session's open log holds. When the
// state does not extend the log — first save of a sid, a different spec,
// fewer trials, or an earlier append to this log failed (and was cut back) —
// it falls back to a whole-log rewrite through install. The log is the only
// checkpoint form: Open refuses a directory still holding a whole-object
// <sid>.json from before it (errLegacyLayout).
//
// Checkpoint I/O never takes FileStore.mu: each session's log has its own
// lock, so archive readers and writers (Nearest, WarmConfigs, Append) and
// other sessions' saves do not queue behind an fsync.

const (
	checkpointDir = "checkpoints"
	ckptLogExt    = ".jsonl"
)

// SessionCheckpoint is the durable resume state of one in-flight daemon
// session: the original submission spec (verbatim, so the daemon can rebuild
// the identical job) plus the observation replay captured at the last
// batch/rung boundary. An empty Replay is valid — it marks a session that
// was admitted but had not completed a boundary yet, which resumes from the
// beginning.
type SessionCheckpoint struct {
	// SID is the daemon session id the checkpoint belongs to.
	SID string `json:"sid"`
	// Spec is the original POST /sessions body.
	Spec json.RawMessage `json:"spec"`
	// Replay is the checkpointed observation history (see tune.Replay).
	Replay tune.Replay `json:"replay"`
	// Trials mirrors len(Replay.Trials) for listings without decoding the
	// full history.
	Trials int `json:"trials"`
	// UpdatedAt is when this checkpoint was written; a loaded log reports
	// when it was created or last rewritten.
	UpdatedAt time.Time `json:"updated_at"`
}

// ckptHeader is the body of a log's first line.
type ckptHeader struct {
	SID       string          `json:"sid"`
	Spec      json.RawMessage `json:"spec"`
	UpdatedAt time.Time       `json:"updated_at"`
}

// ckptBoundary is the body of every later line: the trials observed since
// the line before it, and the run counter at this boundary.
type ckptBoundary struct {
	Trials       []tune.ReplayTrial `json:"trials"`
	RunsReserved int64              `json:"runs_reserved"`
}

// appendCkptHeader appends h's enveloped, newline-terminated line to buf. It
// stays on json.Marshal: it is written once per session, and its fields are
// encoding/json's to format — a time.Time, and a json.RawMessage spec that
// json.Marshal compacts and HTML-escapes.
func appendCkptHeader(buf []byte, h ckptHeader) ([]byte, error) {
	body, err := json.Marshal(h)
	if err != nil {
		return buf, err
	}
	return append(append(appendCkptHead(buf, body), body...), "}\n"...), nil
}

// appendCkptBoundary appends b's enveloped, newline-terminated line to buf,
// its body the bytes json.Marshal writes for b. The body is encoded in place
// behind room for the longest envelope head, and the head, once the body's
// CRC is known, is written up against it.
func appendCkptBoundary(buf []byte, b ckptBoundary) ([]byte, error) {
	const room = len(`{"crc":4294967295,"body":`)
	line, err := tune.AppendReplayTrialsJSON(append(buf, `{"crc":4294967295,"body":{"trials":`...), b.Trials)
	if err != nil {
		return buf, err
	}
	line = append(line, `,"runs_reserved":`...)
	line = append(strconv.AppendInt(line, b.RunsReserved, 10), '}')
	var h [room]byte
	head := appendCkptHead(h[:0], line[len(buf)+room:])
	n := copy(line[len(buf)+len(head):], line[len(buf)+room:])
	copy(line[len(buf):], head)
	return append(line[:len(buf)+len(head)+n], "}\n"...), nil
}

// appendCkptHead appends the envelope up to body: {"crc":<CRC-32 of
// body>,"body":.
func appendCkptHead(buf, body []byte) []byte {
	buf = append(buf, `{"crc":`...)
	buf = strconv.AppendUint(buf, uint64(crc32.ChecksumIEEE(body)), 10)
	return append(buf, `,"body":`...)
}

// ckptBody checks a line's envelope and decodes its body into v.
func ckptBody(line []byte, v any) bool {
	var env struct {
		CRC  uint32          `json:"crc"`
		Body json.RawMessage `json:"body"`
	}
	return json.Unmarshal(line, &env) == nil &&
		crc32.ChecksumIEEE(env.Body) == env.CRC &&
		json.Unmarshal(env.Body, v) == nil
}

// parseCkptLog decodes a checkpoint log: the state its complete, intact
// lines add up to, and the byte length of that prefix (anything past it is a
// torn tail). ok is false when not even the header survives.
func parseCkptLog(data []byte) (cp SessionCheckpoint, good int, ok bool) {
	good = scanLog(data, func(line []byte) bool {
		if !ok {
			var h ckptHeader
			if !ckptBody(line, &h) || h.SID == "" {
				return false
			}
			cp.SID, cp.Spec, cp.UpdatedAt, ok = h.SID, h.Spec, h.UpdatedAt, true
			return true
		}
		var b ckptBoundary
		if !ckptBody(line, &b) {
			return false
		}
		cp.Replay.Trials = append(cp.Replay.Trials, b.Trials...)
		cp.Replay.RunsReserved = b.RunsReserved
		return true
	})
	cp.Trials = len(cp.Replay.Trials)
	return cp, good, ok
}

// ReadCheckpoint loads the checkpoint log at path (a <sid>.jsonl), read up to
// its last intact line. It takes no lock and touches no store state, so it is
// safe beside a live writer in this process or another: it returns what a
// process opening the directory now would resume from.
func ReadCheckpoint(path string) (SessionCheckpoint, error) {
	if filepath.Ext(path) != ckptLogExt {
		return SessionCheckpoint{}, fmt.Errorf("store: %s is not a checkpoint log", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return SessionCheckpoint{}, fmt.Errorf("store: reading checkpoint: %w", err)
	}
	cp, _, ok := parseCkptLog(data)
	if !ok {
		return SessionCheckpoint{}, fmt.Errorf("store: checkpoint log %s has no intact header", path)
	}
	// Files are named after their session; one that says otherwise would
	// shadow the real checkpoint of the session it names.
	if cp.SID != strings.TrimSuffix(filepath.Base(path), ckptLogExt) {
		return SessionCheckpoint{}, fmt.Errorf("store: checkpoint %s names session %q", path, cp.SID)
	}
	return cp, nil
}

// ckptLog is one session's open log. mu serializes that session's checkpoint
// I/O only.
type ckptLog struct {
	mu     sync.Mutex
	log    *appendLog // nil: nothing to extend, the next save rewrites
	spec   []byte     // the header's spec
	trials int        // trials the log holds
}

// close releases the handle. Its error is dropped: every byte a save
// acknowledged was already fsynced.
func (l *ckptLog) close() {
	if l.log != nil {
		_ = l.log.f.Close()
		l.log = nil
	}
}

// checkpointPath returns the path of sid's log, rejecting ids that would
// escape the checkpoint directory. Daemon session ids are decimal integers;
// anything else is refused rather than sanitized.
func (s *FileStore) checkpointPath(sid string) (string, error) {
	if sid == "" || strings.ContainsAny(sid, "/\\.") {
		return "", fmt.Errorf("store: invalid checkpoint session id %q", sid)
	}
	return filepath.Join(s.dir, checkpointDir, sid+ckptLogExt), nil
}

// lockCkptLog returns sid's log entry with its mu held. The entry lock is
// taken before the table lock is released, so whoever holds ckptMu and then
// an entry's mu (DeleteCheckpoint, Close) knows no saver still references
// that entry. An entry created here first adopts the log a previous lifetime
// left at path, if any.
func (s *FileStore) lockCkptLog(sid, path string) (*ckptLog, error) {
	s.ckptMu.Lock()
	if s.ckpts == nil {
		s.ckptMu.Unlock()
		return nil, fmt.Errorf("store: %s is closed", s.dir)
	}
	l, ok := s.ckpts[sid]
	if !ok {
		l = &ckptLog{}
		s.ckpts[sid] = l
	}
	l.mu.Lock()
	s.ckptMu.Unlock()
	if !ok {
		s.reopenCkptLog(l, sid, path)
	}
	return l, nil
}

// SaveCheckpoint makes cp the durable resume state of cp.SID: when it returns
// nil the state has been fsynced (see the flush policy above).
func (s *FileStore) SaveCheckpoint(cp SessionCheckpoint) error {
	path, err := s.checkpointPath(cp.SID)
	if err != nil {
		return err
	}
	l, err := s.lockCkptLog(cp.SID, path)
	if err != nil {
		return err
	}
	defer l.mu.Unlock()
	if l.log != nil && len(cp.Replay.Trials) >= l.trials && bytes.Equal(l.spec, cp.Spec) {
		return l.append(cp)
	}
	return s.rewriteCkptLog(l, path, cp)
}

// reopenCkptLog adopts the log a previous lifetime left for sid (a resumed
// session appends to a log it did not create), its torn tail cut away as the
// WAL's is. Anything short of an intact header for this sid leaves l empty,
// and the save falls back to a rewrite.
func (s *FileStore) reopenCkptLog(l *ckptLog, sid, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	cp, good, ok := parseCkptLog(data)
	if !ok || cp.SID != sid {
		return
	}
	if l.log, err = openLog(s.fs, path, good, len(data)); err == nil {
		l.spec, l.trials = cp.Spec, cp.Trials
	}
}

// append makes cp durable by appending the trials past l.trials as one line.
// A failed append has been cut back; the log is dropped anyway, so the next
// save rewrites the whole state rather than trust the file further.
func (l *ckptLog) append(cp SessionCheckpoint) error {
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	line, err := appendCkptBoundary((*buf)[:0], ckptBoundary{Trials: cp.Replay.Trials[l.trials:], RunsReserved: cp.Replay.RunsReserved})
	if err != nil {
		return fmt.Errorf("store: encoding checkpoint %s: %w", cp.SID, err)
	}
	*buf = line
	if err := l.log.append(line); err != nil {
		l.close()
		return fmt.Errorf("store: appending checkpoint %s: %w", cp.SID, err)
	}
	l.trials = len(cp.Replay.Trials)
	return nil
}

// rewriteCkptLog installs a log at path holding exactly cp — the header and
// one boundary line — so a crash leaves either the old log or the new one,
// and reopens it for the session's later saves to append to. The install is
// the commit: if the reopen fails the save has still succeeded, and the next
// one rewrites again.
func (s *FileStore) rewriteCkptLog(l *ckptLog, path string, cp SessionCheckpoint) error {
	l.close()
	pooled := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(pooled)
	buf, err := appendCkptHeader((*pooled)[:0], ckptHeader{SID: cp.SID, Spec: cp.Spec, UpdatedAt: cp.UpdatedAt})
	if err == nil {
		buf, err = appendCkptBoundary(buf, ckptBoundary{Trials: cp.Replay.Trials, RunsReserved: cp.Replay.RunsReserved})
	}
	if err != nil {
		return fmt.Errorf("store: encoding checkpoint %s: %w", cp.SID, err)
	}
	*pooled = buf
	if err = s.fs.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = installBytes(s.fs, path, buf)
	}
	if err != nil {
		return fmt.Errorf("store: writing checkpoint %s: %w", cp.SID, err)
	}
	if l.log, err = openLog(s.fs, path, len(buf), len(buf)); err == nil {
		l.spec, l.trials = append([]byte(nil), cp.Spec...), len(cp.Replay.Trials)
	}
	return nil
}

// Checkpoints returns every persisted session checkpoint, ordered by session
// id (numeric ids numerically, so resumed sessions re-admit in submission
// order). Unreadable or corrupt files are skipped — a torn .tmp left by a
// crash must not block recovery of the valid checkpoints beside it. It reads
// the files as any other process would (ReadCheckpoint), taking no lock.
func (s *FileStore) Checkpoints() ([]SessionCheckpoint, error) {
	dir := filepath.Join(s.dir, checkpointDir)
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading checkpoints: %w", err)
	}
	var out []SessionCheckpoint
	for _, ent := range ents {
		if cp, err := ReadCheckpoint(filepath.Join(dir, ent.Name())); err == nil {
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return sidLess(out[i].SID, out[j].SID) })
	return out, nil
}

// sidLess orders session ids naturally: ids sharing a prefix with numeric
// suffixes (the daemon's "s1", "s2", … "s10") compare by number, everything
// else lexically — so resumed sessions re-admit in submission order.
func sidLess(a, b string) bool {
	pa, na, aok := SplitSID(a)
	pb, nb, bok := SplitSID(b)
	if aok && bok && pa == pb {
		return na < nb
	}
	return a < b
}

// SplitSID splits a trailing decimal suffix off a session id ("s12" → "s",
// 12). ok is false when there is no suffix or it overflows an int64.
func SplitSID(s string) (prefix string, n int64, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	n, err := strconv.ParseInt(s[i:], 10, 64)
	if err != nil {
		return s, 0, false
	}
	return s[:i], n, true
}

// DeleteCheckpoint closes sid's log and removes its checkpoint.
// Deleting a checkpoint that does not exist is not an error — success, user
// DELETE, and failure paths all race benignly toward the same end state.
func (s *FileStore) DeleteCheckpoint(sid string) error {
	path, err := s.checkpointPath(sid)
	if err != nil {
		return err
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if l := s.ckpts[sid]; l != nil {
		l.mu.Lock() // waits out a save in flight on this session
		defer l.mu.Unlock()
		l.close()
		delete(s.ckpts, sid)
	}
	if err := s.fs.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing checkpoint %s: %w", sid, err)
	}
	return nil
}

// closeCkptLogs closes every open log and refuses further saves.
func (s *FileStore) closeCkptLogs() {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	for _, l := range s.ckpts {
		l.mu.Lock()
		l.close()
		l.mu.Unlock()
	}
	s.ckpts = nil
}
