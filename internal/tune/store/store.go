// Package store persists the tuning repository across daemon restarts: a
// durable, crash-safe Store of tune.SessionRecord entries backed by
// immutable indexed segment files plus a small JSONL write-ahead tail.
//
// Layout inside the store directory:
//
//	MANIFEST       the commit point: segment list, tombstones, id/segment
//	               counters; always installed whole via rename
//	seg-NNNNNN.seg immutable segments: CRC-framed record payloads plus a
//	               binary index block (see segment.go); opening reads only
//	               the index, never the payloads
//	wal.jsonl      the active tail: one JSON entry per line appended since
//	               the last fold — {"op":"add","id":N,"record":{...}} or
//	               {"op":"del","id":N}
//	checkpoints/   one append-only <sid>.jsonl log per in-flight session
//	               (see checkpoint.go)
//
// Every Append and Delete fsyncs the log before returning, so an
// acknowledged record survives a crash. Loading reads the manifest, each
// committed segment's index, and the tail; a torn tail (a final line
// missing its newline or cut mid-JSON by a crash) is truncated away,
// recovering every complete record. In memory the tail is the next segment,
// one with no file: index entries built as writeSegment builds them, and the
// records themselves where a file has payloads. Every live record is thus an
// entry of a segment. When the tail grows past DefaultCompactEvery entries or
// DefaultCompactBytes bytes it is folded: written out as a segment file that
// takes its place entry for entry, and the WAL truncated. Once the tombstones
// number at least DefaultCompactEvery and at least the live records, every
// live record is rewritten into one fresh segment instead. Every write goes
// through fs.go: one append-only log type, one atomic install, one
// file-system seam. This is the only layout the store reads: Open refuses a
// directory still in a retired one (see errLegacyLayout).
package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/tune"
)

// Stored is one archived session with its stable id.
type Stored struct {
	ID     int64              `json:"id"`
	Record tune.SessionRecord `json:"record"`
}

// appendJSON appends st as json.Marshal writes it: a segment's payload.
func (st *Stored) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, st.ID, 10)
	dst = append(dst, `,"record":`...)
	dst, err := st.Record.AppendJSON(dst)
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// Summary is the index-resident digest of one archived session: everything
// listings and lookup walks need without reading the record payload.
type Summary struct {
	ID       int64  `json:"id"`
	System   string `json:"system"`
	Workload string `json:"workload"`
	Trials   int    `json:"trials"`
	// BestTime is the best non-failed full-fidelity trial's objective
	// (0 if none), matching the daemon's listing convention.
	BestTime float64 `json:"best_time,omitempty"`
}

// Store is a durable corpus of past tuning sessions. Implementations are
// safe for concurrent use.
type Store interface {
	// Summaries returns the live sessions' digests in insertion order from
	// the index alone.
	Summaries() []Summary
	// Len returns the number of live records.
	Len() int
	// Get returns the record with the given id.
	Get(id int64) (Stored, bool, error)
	// ForSystem returns the live records of the named system in insertion
	// order, reading only that system's payloads. Store implements
	// tune.Corpus.
	ForSystem(system string) ([]tune.SessionRecord, error)
	// Append durably archives rec and returns its assigned id.
	Append(rec tune.SessionRecord) (int64, error)
	// Delete durably removes the record with the given id.
	Delete(id int64) error
	// WarmConfigs warm-starts from the nearest transferable session of the
	// named system — identical results to tune.WarmConfigs over the
	// materialized corpus, but served by the feature index with lazy
	// record loads. Store implements tune.WarmSource.
	WarmConfigs(system string, features map[string]float64, space *tune.Space, k int) []tune.Config
	// Nearest returns the digest of the session nearest to features among
	// the named system's sessions (ties toward the earlier session).
	Nearest(system string, features map[string]float64) (Summary, bool)
	// SaveCheckpoint makes cp the durable resume state of an in-flight
	// session: it returns only once that state is fsynced; see
	// SessionCheckpoint.
	SaveCheckpoint(cp SessionCheckpoint) error
	// Checkpoints returns every persisted session checkpoint in session-id
	// order.
	Checkpoints() ([]SessionCheckpoint, error)
	// DeleteCheckpoint removes a session's checkpoint; removing a missing
	// checkpoint is not an error.
	DeleteCheckpoint(sid string) error
	// IndexStats reports how often lookups have had to (re)build the
	// feature index, and what the last build cost.
	IndexStats() IndexStats
	// Close releases the store's file handles. The store stays loadable.
	Close() error
}

// IndexStats is the feature index's rebuild history. A build runs inside the
// lookup that found the index missing or stale, under the store's exclusive
// lock: while it lasts, every other operation on the store waits.
type IndexStats struct {
	Builds    int64         // builds since Open
	LastBuild time.Duration // what the last one took, corpus collection included
	Points    int           // sessions of the system the last one indexed
}

const (
	snapshotFile = "snapshot.json" // v1 layout, refused on open
	walFile      = "wal.jsonl"
	lockFile     = ".lock"
)

// DefaultCompactEvery is the tail length that triggers an automatic fold
// into a new segment, and the fewest tombstones that trigger a compaction.
const DefaultCompactEvery = 128

// DefaultCompactBytes is the WAL byte size that triggers an automatic fold
// regardless of entry count. Entry counting alone lets a WAL of few huge
// sessions (large trial histories) grow far past any reasonable replay
// budget before folding; the byte trigger bounds reopen cost by data
// volume, not record arithmetic.
const DefaultCompactBytes = 8 << 20

// logEntry is one WAL line.
type logEntry struct {
	Op     string              `json:"op"` // "add" or "del"
	ID     int64               `json:"id"`
	Record *tune.SessionRecord `json:"record,omitempty"`
}

// appendLine appends e's WAL line, newline included: what json.Marshal
// writes for e. Op is one of two ASCII words and needs no escaping.
func (e *logEntry) appendLine(dst []byte) ([]byte, error) {
	dst = append(dst, `{"op":"`...)
	dst = append(dst, e.Op...)
	dst = append(dst, `","id":`...)
	dst = strconv.AppendInt(dst, e.ID, 10)
	if e.Record != nil {
		var err error
		if dst, err = e.Record.AppendJSON(append(dst, `,"record":`...)); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

// recRef locates one live record: entry ent of segment seg, where segment
// len(segs) is the tail.
type recRef struct {
	seg int32
	ent int32
	id  int64
}

// FileStore is the file-backed Store.
type FileStore struct {
	dir string
	fs  fileSystem

	// compactEvery is the number of WAL entries and compactBytes the WAL
	// byte size that trigger an automatic tail fold on the next mutation,
	// whichever fires first; 0 disables a trigger. Tombstones reaching both
	// compactEvery and the live record count trigger a compaction instead.
	// Open sets the defaults; only in-package tests change them, right after
	// Open.
	compactEvery int
	compactBytes int64

	// mu guards all mutable state. Writers (Append, Delete, folds) take it
	// exclusively; materializing readers (ForSystem, Get, Summaries) share
	// it — segment payload reads go through ReadAt on immutable files, so
	// concurrent readers never contend on file position. Lookup methods
	// (WarmConfigs, Nearest) also share it on their fast path:
	// when the lazy feature index is built and fresh (CorpusIndex.Ready) a
	// walk is read-only, so concurrent lookups serve in parallel; only when
	// the index must be (re)built does a lookup upgrade to the write lock
	// (see lookupWalk).
	mu     sync.RWMutex
	wal    *appendLog // its size is the WAL's bytes since the last fold
	lock   *os.File   // held flock guarding the directory against other processes
	closed bool
	man    manifest
	segs   []*segment     // the committed segments
	tail   *segment       // the WAL's records: segment len(segs), with no file
	dead   map[int64]bool // tombstoned ids of committed segments
	walLen int            // entries in the WAL since the last fold
	nextID int64

	// Lazy feature-space index over the live corpus; refs maps its walk
	// positions back to records. Invalidated by deletes. A fold keeps both:
	// the tail becomes segment len(segs) entry for entry, so every ref still
	// names the same record. A compaction re-derives refs, since dropping dead
	// records moves no live position.
	corpus   *tune.CorpusIndex
	refs     []recRef
	corpusOK bool
	index    IndexStats

	// ckptMu guards ckpts, the open session-checkpoint logs by session id
	// (nil once closed); checkpoint I/O runs under each log's own lock, never
	// under mu (see checkpoint.go).
	ckptMu sync.Mutex
	ckpts  map[string]*ckptLog
}

func (s *FileStore) path(name string) string { return filepath.Join(s.dir, name) }

// Open loads (or initializes) the store rooted at dir, recovering from any
// torn WAL tail left by a crash. A directory in a retired layout is refused.
func Open(dir string) (*FileStore, error) { return openFS(dir, osFS{}) }

// openFS is Open writing through fs.
func openFS(dir string, fs fileSystem) (*FileStore, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &FileStore{
		dir:          dir,
		fs:           fs,
		compactEvery: DefaultCompactEvery,
		compactBytes: DefaultCompactBytes,
		nextID:       1,
		tail:         newTail(),
		dead:         map[int64]bool{},
		ckpts:        map[string]*ckptLog{},
	}
	// One process owns a store directory at a time: two daemons appending
	// to the same WAL would hand out duplicate ids and each fold would
	// discard the other's appends. The lock is advisory and released by the
	// kernel on process exit, so a crashed owner never wedges the
	// directory.
	lock, err := acquireDirLock(s.path(lockFile))
	if err != nil {
		return nil, err
	}
	s.lock = lock
	fail := func(err error) (*FileStore, error) {
		for _, sg := range s.segs {
			sg.close()
		}
		releaseDirLock(lock)
		return nil, err
	}
	man, haveMan, err := readManifest(s.path(manifestFile))
	if err != nil {
		return fail(err)
	}
	// The segment layout and the checkpoint log are the only forms this
	// release reads, and a directory still in an older one is refused whole:
	// a v1 store (snapshot.json, no MANIFEST) opened as fresh would hide every
	// archived session, and a whole-object checkpoints/<sid>.json skipped like
	// a torn .tmp would silently drop a resumable one.
	if _, err := os.Stat(s.path(snapshotFile)); err == nil && !haveMan {
		return fail(errLegacyLayout(s.path(snapshotFile)))
	}
	ckpts, err := os.ReadDir(s.path(checkpointDir))
	if err != nil && !os.IsNotExist(err) {
		return fail(fmt.Errorf("store: reading checkpoints: %w", err))
	}
	for _, ent := range ckpts {
		if !ent.IsDir() && filepath.Ext(ent.Name()) == ".json" {
			return fail(errLegacyLayout(filepath.Join(s.path(checkpointDir), ent.Name())))
		}
	}
	if !haveMan {
		// Fresh directory: commit an empty manifest.
		man = manifest{Version: 2, NextID: 1}
		if err := s.installManifest(man); err != nil {
			return fail(err)
		}
	}
	s.man = man
	if s.man.NextID > s.nextID {
		s.nextID = s.man.NextID
	}
	for _, id := range s.man.Deleted {
		s.dead[id] = true
	}
	for _, name := range s.man.Segments {
		sg, err := openSegment(s.path(name))
		if err != nil {
			return fail(err)
		}
		for i := range sg.entries {
			if id := sg.entries[i].id; id >= s.nextID {
				s.nextID = id + 1
			}
		}
		s.segs = append(s.segs, sg)
	}
	if err := s.replayWAL(); err != nil {
		return fail(err)
	}
	// A WAL past the fold threshold (e.g. the previous owner's folds kept
	// failing) is folded now rather than re-replayed on every future open;
	// best-effort like any auto-fold.
	s.maybeCompactLocked()
	return s, nil
}

// lastLegacyRelease is the last release that reads the two layouts Open
// refuses: it migrates a v1 snapshot on open and replaces a whole-object
// checkpoint at the resumed session's first save.
const lastLegacyRelease = "PR 15 (commit a76525a)"

// errLegacyLayout is Open's refusal of a directory holding path.
func errLegacyLayout(path string) error {
	return fmt.Errorf("store: %s is in a layout this release no longer reads; %s is the last release that reads and converts it — run that on the directory once, then retry", path, lastLegacyRelease)
}

// segAt returns segment i, the tail being segment len(segs).
func (s *FileStore) segAt(i int) *segment {
	if i == len(s.segs) {
		return s.tail
	}
	return s.segs[i]
}

// findSeg locates a live-or-dead id, the tail included.
func (s *FileStore) findSeg(id int64) (segIdx, entIdx int, ok bool) {
	for si := 0; si <= len(s.segs); si++ {
		if ei, ok := s.segAt(si).find(id); ok {
			return si, ei, true
		}
	}
	return 0, 0, false
}

// replayWAL applies every complete log entry and opens the WAL for appending,
// its torn tail cut away.
func (s *FileStore) replayWAL() error {
	data, err := os.ReadFile(s.path(walFile))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: reading WAL: %w", err)
	}
	good := scanLog(data, func(line []byte) bool {
		var e logEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return false
		}
		s.apply(e)
		s.walLen++
		return true
	})
	if s.wal, err = openLog(s.fs, s.path(walFile), good, len(data)); err != nil {
		return fmt.Errorf("store: opening WAL: %w", err)
	}
	return nil
}

// apply mutates the in-memory state by one log entry.
func (s *FileStore) apply(e logEntry) {
	switch e.Op {
	case "add":
		if e.Record == nil {
			return
		}
		if e.ID >= s.nextID {
			s.nextID = e.ID + 1
		}
		// A crash between a fold's manifest install and its WAL truncation
		// replays entries already folded into a segment: skip them. A repeated
		// tail id keeps its place and takes the newer record.
		si, ei, found := s.findSeg(e.ID)
		switch {
		case !found:
			s.tail.add(Stored{ID: e.ID, Record: *e.Record})
		case si == len(s.segs):
			s.tail.entries[ei] = entryFor(Stored{ID: e.ID, Record: *e.Record})
			s.tail.recs[e.ID] = *e.Record
		}
	case "del":
		// A tail record goes without a tombstone: no committed file holds it.
		si, ei, found := s.findSeg(e.ID)
		switch {
		case !found:
		case si == len(s.segs):
			s.tail.remove(ei)
		default:
			s.dead[e.ID] = true
		}
	}
}

// appendEntry makes one WAL line durable.
func (s *FileStore) appendEntry(e logEntry) error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	line, err := e.appendLine((*buf)[:0])
	if err != nil {
		return fmt.Errorf("store: encoding log entry: %w", err)
	}
	*buf = line
	if err := s.wal.append(line); err != nil {
		return fmt.Errorf("store: appending to WAL: %w", err)
	}
	s.walLen++
	return nil
}

// Append implements Store.
func (s *FileStore) Append(rec tune.SessionRecord) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	if err := s.appendEntry(logEntry{Op: "add", ID: id, Record: &rec}); err != nil {
		return 0, err
	}
	s.nextID++
	s.tail.add(Stored{ID: id, Record: rec})
	if s.corpusOK {
		// Appends extend the live order, so the lazy index stays valid.
		ent := len(s.tail.entries) - 1
		s.corpus.AddKV(rec.System, s.tail.entries[ent].feats, len(s.refs))
		s.refs = append(s.refs, recRef{seg: int32(len(s.segs)), ent: int32(ent), id: id})
	}
	s.maybeCompactLocked()
	return id, nil
}

// BulkAppend archives a batch of records as one committed segment, skipping
// the per-record WAL fsync — the ingest path for imports and for building
// large corpora. Records receive consecutive ids starting at the returned
// value; the batch is durable as a unit (segment written and fsynced, then
// the manifest installed) before BulkAppend returns.
func (s *FileStore) BulkAppend(recs []tune.SessionRecord) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: %s is closed", s.dir)
	}
	if len(recs) == 0 {
		return s.nextID, nil
	}
	// Fold any WAL tail first so the live order stays the append order once
	// the new segment lands after the existing ones.
	if err := s.foldTailLocked(); err != nil {
		return 0, err
	}
	first := s.nextID
	stored := make([]Stored, len(recs))
	for i := range recs {
		stored[i] = Stored{ID: first + int64(i), Record: recs[i]}
	}
	man := s.man
	man.NextID = first + int64(len(recs))
	sg, err := s.commitLocked(man, stored)
	if err != nil {
		return 0, err
	}
	s.segs = append(s.segs, sg)
	s.nextID = man.NextID
	if s.corpusOK {
		// Bulk appends extend the live order just like Append does, so the
		// lazy index absorbs them incrementally.
		si := int32(len(s.segs) - 1)
		for i := range sg.entries {
			s.corpus.AddKV(sg.entries[i].system, sg.entries[i].feats, len(s.refs))
			s.refs = append(s.refs, recRef{seg: si, ent: int32(i), id: sg.entries[i].id})
		}
	}
	return first, nil
}

// Delete implements Store.
func (s *FileStore) Delete(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, _, ok := s.findSeg(id); !ok || s.dead[id] {
		return fmt.Errorf("store: no session %d", id)
	}
	if err := s.appendEntry(logEntry{Op: "del", ID: id}); err != nil {
		return err
	}
	s.apply(logEntry{Op: "del", ID: id})
	// A delete removes a position from the live order; the index re-syncs
	// on the next lookup.
	s.invalidateCorpusLocked()
	s.maybeCompactLocked()
	return nil
}

func (s *FileStore) invalidateCorpusLocked() {
	s.corpusOK = false
	s.corpus = nil
	s.refs = nil
}

// iterLiveLocked visits every live record reference in insertion order.
func (s *FileStore) iterLiveLocked(visit func(ref recRef) bool) {
	for si := 0; si <= len(s.segs); si++ {
		sg := s.segAt(si)
		for ei := range sg.entries {
			id := sg.entries[ei].id
			if s.dead[id] {
				continue
			}
			if !visit(recRef{seg: int32(si), ent: int32(ei), id: id}) {
				return
			}
		}
	}
}

// entryLocked returns the index entry behind a reference.
func (s *FileStore) entryLocked(ref recRef) *segEntry {
	return &s.segAt(int(ref.seg)).entries[ref.ent]
}

// readRefLocked loads the record behind a reference.
func (s *FileStore) readRefLocked(ref recRef) (tune.SessionRecord, error) {
	return s.segAt(int(ref.seg)).readRecord(s.entryLocked(ref))
}

// Get implements Store.
func (s *FileStore) Get(id int64) (Stored, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si, ei, ok := s.findSeg(id)
	if !ok || s.dead[id] {
		return Stored{}, false, nil
	}
	rec, err := s.readRefLocked(recRef{seg: int32(si), ent: int32(ei), id: id})
	if err != nil {
		return Stored{}, false, err
	}
	return Stored{ID: id, Record: rec}, true, nil
}

// Summaries implements Store.
func (s *FileStore) Summaries() []Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Summary, 0, s.lenLocked())
	s.iterLiveLocked(func(ref recRef) bool {
		out = append(out, s.summaryLocked(ref))
		return true
	})
	return out
}

func (s *FileStore) summaryLocked(ref recRef) Summary {
	e := s.entryLocked(ref)
	sum := Summary{ID: e.id, System: e.system, Workload: e.workload, Trials: int(e.ntrials)}
	if !math.IsNaN(e.best) {
		sum.BestTime = e.best
	}
	return sum
}

// ForSystem implements Store (and tune.Corpus). The segment entry index
// carries each record's system, so a foreign system's payload is never read.
func (s *FileStore) ForSystem(system string) ([]tune.SessionRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []tune.SessionRecord
	var err error
	s.iterLiveLocked(func(ref recRef) bool {
		if s.entryLocked(ref).system != system {
			return true
		}
		var rec tune.SessionRecord
		if rec, err = s.readRefLocked(ref); err != nil {
			return false
		}
		out = append(out, rec)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *FileStore) lenLocked() int {
	n := len(s.tail.entries)
	for _, sg := range s.segs {
		n += len(sg.entries)
	}
	return n - len(s.dead)
}

// Len implements Store.
func (s *FileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lenLocked()
}

// ensureCorpusLocked (re)builds the lazy feature index over the live order.
func (s *FileStore) ensureCorpusLocked() {
	if s.corpusOK {
		return
	}
	s.corpus = tune.NewCorpusIndex()
	s.refs = s.refs[:0]
	s.iterLiveLocked(func(ref recRef) bool {
		e := s.entryLocked(ref)
		s.corpus.AddKV(e.system, e.feats, len(s.refs))
		s.refs = append(s.refs, ref)
		return true
	})
	s.corpusOK = true
}

// lookupWalk runs one indexed nearest-first walk with reader concurrency.
// Fast path: when the lazy index exists and a walk for system would not
// rebuild it (CorpusIndex.Ready), the whole lookup — walk and payload reads
// — serves under the shared lock, so concurrent lookups during archival run
// in parallel instead of serializing on an exclusive lock they almost never
// needed. Slow path: take the write lock, (re)build under it (double-checked
// — another lookup may have rebuilt while this one waited), and serve there.
// Whichever lock is held, it is held across visit, so closures may touch
// refs and segment entries freely.
func (s *FileStore) lookupWalk(system string, features map[string]float64, visit func(pos, ord int) bool) {
	s.mu.RLock()
	if s.corpusOK && s.corpus.Ready(system) {
		defer s.mu.RUnlock()
		s.corpus.Walk(system, features, visit)
		return
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.corpusOK || !s.corpus.Ready(system) {
		t0 := time.Now()
		s.ensureCorpusLocked()
		s.corpus.Rebuild(system)
		s.index = IndexStats{Builds: s.index.Builds + 1, LastBuild: time.Since(t0), Points: s.corpus.Len(system)}
	}
	s.corpus.Walk(system, features, visit)
}

// IndexStats implements Store.
func (s *FileStore) IndexStats() IndexStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index
}

// WarmConfigs implements Store (and tune.WarmSource): identical results to
// tune.WarmConfigs over the materialized repository, but the feature index
// walks candidates nearest-first and only transferable ones load their
// payloads. Unreadable payloads are skipped — a warm start degrades to a
// cold start, never to an error.
func (s *FileStore) WarmConfigs(system string, features map[string]float64, space *tune.Space, k int) []tune.Config {
	names := space.Names()
	var out []tune.Config
	s.lookupWalk(system, features, func(pos, _ int) bool {
		ref := s.refs[pos]
		if int(s.entryLocked(ref).nparams) != len(names) {
			return true
		}
		rec, err := s.readRefLocked(ref)
		if err != nil {
			return true
		}
		if cfgs := tune.TransferConfigs(rec, space, k); len(cfgs) > 0 {
			out = cfgs
			return false
		}
		return true
	})
	return out
}

// Nearest implements Store.
func (s *FileStore) Nearest(system string, features map[string]float64) (Summary, bool) {
	var sum Summary
	found := false
	s.lookupWalk(system, features, func(pos, _ int) bool {
		sum, found = s.summaryLocked(s.refs[pos]), true
		return false
	})
	return sum, found
}

// maybeCompactLocked reclaims space after a mutation. Once the tombstones
// reach both compactEvery and the live record count — at least as many dead
// records as live ones — it compacts, which empties the WAL too.
// Otherwise it folds the tail when the WAL has grown past compactEvery
// entries or compactBytes bytes, whichever fires first. Neither failing is
// an error for the triggering mutation — the mutation itself is already
// durable in the log; the work is retried on the next mutation and at the
// latest on reopen.
func (s *FileStore) maybeCompactLocked() {
	if dead := len(s.dead); s.compactEvery > 0 && dead >= s.compactEvery && dead >= s.lenLocked() {
		if s.compactLocked() == nil {
			return
		}
	}
	byCount := s.compactEvery > 0 && s.walLen >= s.compactEvery
	bySize := s.compactBytes > 0 && s.wal.size >= s.compactBytes
	if byCount || bySize {
		_ = s.foldTailLocked()
	}
}

// commitLocked makes man the store's manifest, first installing recs (if any)
// as the new segment it names last. The manifest rename is the commit point: a
// failure before it leaves the committed state as it was (an orphan segment is
// ignored on reopen, and overwritten by the next commit), and the segment is
// already open, so nothing after it can fail.
func (s *FileStore) commitLocked(man manifest, recs []Stored) (*segment, error) {
	var sg *segment
	if len(recs) > 0 {
		name := segName(man.Seq)
		man.Seq++
		var err error
		if sg, err = s.installSegment(name, recs); err != nil {
			return nil, err
		}
		man.Segments = append(append([]string(nil), man.Segments...), name)
	}
	if err := s.installManifest(man); err != nil {
		if sg != nil {
			sg.close()
		}
		return nil, err
	}
	s.man = man
	return sg, nil
}

// foldTailLocked turns the WAL tail into a new committed segment, then
// empties the WAL.
func (s *FileStore) foldTailLocked() error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if len(s.tail.entries) == 0 && len(s.man.Deleted) == len(s.dead) && s.walLen == 0 {
		return nil
	}
	man := s.man
	man.NextID = s.nextID
	man.Deleted = deadList(s.dead)
	recs := make([]Stored, len(s.tail.entries))
	for i := range s.tail.entries {
		id := s.tail.entries[i].id
		recs[i] = Stored{ID: id, Record: s.tail.recs[id]}
	}
	sg, err := s.commitLocked(man, recs)
	if err != nil {
		return err
	}
	if sg != nil {
		// The new segment takes the tail's index, entry for entry, so the
		// refs into the tail now name the same records on disk.
		s.segs = append(s.segs, sg)
		s.tail = newTail()
	}
	return s.resetWALLocked()
}

// resetWALLocked empties the WAL once a commit holds everything in it. The
// truncate is the only fallible step after a commit point, and failing it
// loses nothing: replay skips entries a committed segment already holds, and
// the next fold empties the WAL again.
func (s *FileStore) resetWALLocked() error {
	if err := s.wal.reset(); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	s.walLen = 0
	return nil
}

func deadList(dead map[int64]bool) []int64 {
	if len(dead) == 0 {
		return nil
	}
	out := make([]int64, 0, len(dead))
	for id := range dead {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// compactLocked rewrites every live record into one fresh segment, dropping
// tombstones and old segment files.
func (s *FileStore) compactLocked() error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	var recs []Stored
	var err error
	s.iterLiveLocked(func(ref recRef) bool {
		var rec tune.SessionRecord
		if rec, err = s.readRefLocked(ref); err != nil {
			return false
		}
		recs = append(recs, Stored{ID: ref.id, Record: rec})
		return true
	})
	if err != nil {
		return err
	}
	sg, err := s.commitLocked(manifest{Version: 2, NextID: s.nextID, Seq: s.man.Seq}, recs)
	if err != nil {
		return err
	}
	old := s.segs
	s.segs = nil
	if sg != nil {
		s.segs = []*segment{sg}
	}
	s.tail = newTail()
	s.dead = map[int64]bool{}
	for _, sg := range old {
		sg.close()
		_ = s.fs.Remove(sg.path) // no longer named: a leftover is ignored
	}
	if s.corpusOK {
		// The live order is unchanged, so the index's positions survive;
		// only the references move to the new segment.
		s.refs = s.refs[:0]
		s.iterLiveLocked(func(ref recRef) bool {
			s.refs = append(s.refs, ref)
			return true
		})
	}
	return s.resetWALLocked()
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeCkptLogs()
	err := s.wal.f.Close()
	for _, sg := range s.segs {
		sg.close()
	}
	releaseDirLock(s.lock)
	return err
}

var _ Store = (*FileStore)(nil)
var _ tune.WarmSource = (*FileStore)(nil)
var _ tune.Corpus = (*FileStore)(nil)
