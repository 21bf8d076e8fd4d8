package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tune"
)

// faultFS is the file system the store's tests run on: every call goes to the
// OS, is numbered from 1, and can be faulted — by number (fault) or as the
// next call of a given method (once).
type faultFS struct {
	mu       sync.Mutex
	calls    []string                            // method of every call so far
	fault    func(call int, op string) faultKind // nil: none
	armed    map[string]faultKind                // the next call of each method
	injected int                                 // calls faulted so far

	fileSyncs, dirSyncs, written atomic.Int64
	parked, release              chan struct{} // a parked Sync's handshake
}

type faultKind int

const (
	pass  faultKind = iota
	fail            // the call does nothing (a Close still releases) and errs
	short           // a Write lands half its bytes, then errs
	park            // a Sync signals parked and waits for release, then runs
)

var errInjected = errors.New("injected fault")

func newFaultFS() *faultFS {
	return &faultFS{armed: map[string]faultKind{}, parked: make(chan struct{}), release: make(chan struct{})}
}

// openFaulty opens dir as a store writing through a new faultFS.
func openFaulty(t testing.TB, dir string) (*FileStore, *faultFS) {
	t.Helper()
	fs := newFaultFS()
	s, err := openFS(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, fs
}

// once faults the next call of op with k.
func (fs *faultFS) once(op string, k faultKind) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.armed[op] = k
}

// next numbers one call of op and decides what it does.
func (fs *faultFS) next(op string) faultKind {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.calls = append(fs.calls, op)
	k, ok := fs.armed[op]
	delete(fs.armed, op)
	if !ok && fs.fault != nil {
		k = fs.fault(len(fs.calls), op)
	}
	if k != pass {
		fs.injected++
	}
	return k
}

// faulted reports how many calls have been faulted.
func (fs *faultFS) faulted() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.injected
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if fs.next("OpenFile") == fail {
		return nil, errInjected
	}
	f, err := osFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{f, fs}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if fs.next("Rename") == fail {
		return errInjected
	}
	return os.Rename(oldpath, newpath)
}

func (fs *faultFS) Remove(name string) error {
	if fs.next("Remove") == fail {
		return errInjected
	}
	return os.Remove(name)
}

func (fs *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if fs.next("MkdirAll") == fail {
		return errInjected
	}
	return os.MkdirAll(path, perm)
}

func (fs *faultFS) SyncDir(dir string) error {
	fs.dirSyncs.Add(1)
	if fs.next("SyncDir") == fail {
		return errInjected
	}
	return osFS{}.SyncDir(dir)
}

type faultFile struct {
	file
	fs *faultFS
}

func (f faultFile) Write(p []byte) (int, error) {
	switch f.fs.next("Write") {
	case fail:
		return 0, errInjected
	case short:
		n, _ := f.file.Write(p[:len(p)/2])
		f.fs.written.Add(int64(n))
		return n, io.ErrShortWrite
	}
	n, err := f.file.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f faultFile) Sync() error {
	f.fs.fileSyncs.Add(1)
	switch f.fs.next("Sync") {
	case fail:
		return errInjected
	case park:
		f.fs.parked <- struct{}{}
		<-f.fs.release
	}
	return f.file.Sync()
}

func (f faultFile) Truncate(size int64) error {
	if f.fs.next("Truncate") == fail {
		return errInjected
	}
	return f.file.Truncate(size)
}

func (f faultFile) Close() error {
	k := f.fs.next("Close")
	err := f.file.Close()
	if k == fail {
		return errInjected
	}
	return err
}

// TestWALFailedAppendLosesNothing: a WAL append (Append or Delete) whose write
// lands short or whose fsync fails is cut back, so the next acknowledged
// append follows the last acknowledged line — and survives a reopen instead
// of being truncated away behind a torn one. If the cut fails too, the next
// append retries it first.
func TestWALFailedAppendLosesNothing(t *testing.T) {
	for _, fault := range []struct {
		name string
		arm  func(fs *faultFS)
	}{
		{"short write", func(fs *faultFS) { fs.once("Write", short) }},
		{"failed fsync", func(fs *faultFS) { fs.once("Sync", fail) }},
		{"short write, failed cut", func(fs *faultFS) { fs.once("Write", short); fs.once("Truncate", fail) }},
	} {
		for _, op := range []string{"Append", "Delete"} {
			t.Run(op+"/"+fault.name, func(t *testing.T) {
				dir := t.TempDir()
				s, fs := openFaulty(t, dir)
				want := make([]Stored, 2)
				for i := range want {
					want[i].Record = rec("dbms", "tpch", i+1)
					id, err := s.Append(want[i].Record)
					if err != nil {
						t.Fatal(err)
					}
					want[i].ID = id
				}
				fault.arm(fs)
				var err error
				if op == "Append" {
					_, err = s.Append(rec("spark", "pagerank", 9))
				} else {
					err = s.Delete(want[0].ID)
				}
				if err == nil {
					t.Fatalf("%s with an injected fault reported success", op)
				}
				next := Stored{Record: rec("hadoop", "grep", 3)}
				if next.ID, err = s.Append(next.Record); err != nil {
					t.Fatalf("append after the fault: %v", err)
				}
				want = append(want, next)
				s.Close()
				if got := sessions(t, open(t, dir)); !reflect.DeepEqual(got, want) {
					t.Fatalf("after reopen: %d live %+v\nwant %d acknowledged", len(got), got, len(want))
				}
			})
		}
	}
}

func TestWALFailedAppendLosesNothingRace3(t *testing.T) { TestWALFailedAppendLosesNothing(t) }

// TestFsyncsPerOperation pins how many file and directory fsyncs each store
// operation makes.
func TestFsyncsPerOperation(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	var s *FileStore
	var id int64
	for _, op := range []struct {
		name        string
		run         func() error
		files, dirs int64
	}{
		{"fresh Open", func() (err error) { s, err = openFS(dir, fs); return err }, 1, 1},
		{"Append without a fold", func() (err error) { id, err = s.Append(rec("dbms", "tpch", 1)); return err }, 1, 0},
		{"fold with a tail", func() error { s.mu.Lock(); defer s.mu.Unlock(); return s.foldTailLocked() }, 2, 2},
		{"Delete without a fold", func() error { return s.Delete(id) }, 1, 0},
		{"fold with tombstones only", func() error { s.mu.Lock(); defer s.mu.Unlock(); return s.foldTailLocked() }, 1, 1},
		{"BulkAppend on an empty tail", func() error { _, err := s.BulkAppend([]tune.SessionRecord{rec("dbms", "oltp", 2)}); return err }, 2, 2},
		{"non-empty Compact", func() error { return s.Compact() }, 2, 2},
		{"checkpoint rewrite", func() error { return s.SaveCheckpoint(ckpt("s1", 1)) }, 1, 1},
		{"checkpoint append", func() error { return s.SaveCheckpoint(ckpt("s1", 2)) }, 1, 0},
	} {
		files, dirs := fs.fileSyncs.Load(), fs.dirSyncs.Load()
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if f, d := fs.fileSyncs.Load()-files, fs.dirSyncs.Load()-dirs; f != op.files || d != op.dirs {
			t.Errorf("%s: %d file and %d directory fsyncs, want %d and %d", op.name, f, d, op.files, op.dirs)
		}
	}
	s.Close()
}

func TestFsyncsPerOperationRace3(t *testing.T) { TestFsyncsPerOperation(t) }

// model is what a store must hold after a scripted lifetime: the acknowledged
// records in insertion order and each session's acknowledged checkpoint.
type model struct {
	recs  []Stored
	ckpts map[string]SessionCheckpoint
}

func (m model) clone() model {
	c := model{recs: append([]Stored(nil), m.recs...), ckpts: map[string]SessionCheckpoint{}}
	for sid, cp := range m.ckpts {
		c.ckpts[sid] = cp
	}
	return c
}

// checkpoints lists m's checkpoints in the order Checkpoints() returns them.
func (m model) checkpoints() []SessionCheckpoint {
	var out []SessionCheckpoint
	for _, sid := range []string{"s1", "s2"} {
		if cp, ok := m.ckpts[sid]; ok {
			out = append(out, cp)
		}
	}
	return out
}

// An op is one operation of the scripted lifetime. It returns its error and
// its effect: what it does to the model if it takes hold.
type op func(s *FileStore, m *model) (effect func(*model), err error)

func appendOp(r tune.SessionRecord) op {
	return func(s *FileStore, _ *model) (func(*model), error) {
		id := s.nextID // the id it takes if it takes hold
		_, err := s.Append(r)
		return func(m *model) { m.recs = append(m.recs, Stored{ID: id, Record: r}) }, err
	}
}

// deleteOp deletes the acknowledged record at pick(len(m.recs)).
func deleteOp(pick func(n int) int) op {
	return func(s *FileStore, m *model) (func(*model), error) {
		if len(m.recs) == 0 {
			return func(*model) {}, nil
		}
		id := m.recs[pick(len(m.recs))].ID
		return func(m *model) {
			for i := range m.recs {
				if m.recs[i].ID == id {
					m.recs = append(m.recs[:i:i], m.recs[i+1:]...)
					return
				}
			}
		}, s.Delete(id)
	}
}

func bulkOp(recs []tune.SessionRecord) op {
	return func(s *FileStore, _ *model) (func(*model), error) {
		first := s.nextID
		_, err := s.BulkAppend(recs)
		return func(m *model) {
			for i, r := range recs {
				m.recs = append(m.recs, Stored{ID: first + int64(i), Record: r})
			}
		}, err
	}
}

// errWrongAnswer marks a lookup that disagrees with the model.
var errWrongAnswer = errors.New("wrong answer")

// nearestOp checks the store's nearest dbms session to size 2 against the
// model's: a lookup sees exactly the acknowledged writes.
func nearestOp(s *FileStore, m *model) (func(*model), error) {
	q := map[string]float64{"size": 2}
	var recs []tune.SessionRecord
	var ids []int64
	for _, st := range m.recs {
		if st.Record.System == "dbms" {
			recs, ids = append(recs, st.Record), append(ids, st.ID)
		}
	}
	var want Summary
	if rank := tune.RankSessions(recs, q); len(rank) > 0 {
		r := recs[rank[0]]
		want = Summary{ID: ids[rank[0]], System: r.System, Workload: r.Workload, Trials: len(r.Trials), BestTime: r.Trials[r.BestTrial()].Time}
	}
	if got, _ := s.Nearest("dbms", q); got != want {
		return nil, fmt.Errorf("%w: Nearest = %+v, want %+v", errWrongAnswer, got, want)
	}
	return func(*model) {}, nil
}

func saveOp(cp SessionCheckpoint) op {
	return func(s *FileStore, _ *model) (func(*model), error) {
		return func(m *model) { m.ckpts[cp.SID] = cp }, s.SaveCheckpoint(cp)
	}
}

// lifetime is the scripted store lifetime the fault table replays, with
// CompactEvery 4: after the fresh Open, three appends and a delete (which
// folds the tail), checkpoints for two sessions — s1 rewritten, then appended
// to twice — a bulk append, appends up to the next count-triggered fold, the
// delete of a segment-resident record, a full compaction, and s2's checkpoint
// deleted. Close follows. A lookup after the bulk append builds the feature
// index, and one after the fold checks it followed the records into the new
// segment.
func lifetime() []op {
	ops := []op{
		appendOp(rec("dbms", "tpch", 1)),
		appendOp(rec("dbms", "oltp", 2)),
		appendOp(rec("spark", "pagerank", 3)),
		deleteOp(func(n int) int { return n / 2 }), // the second of three: a tail record
		saveOp(ckpt("s1", 0)),
		saveOp(ckpt("s1", 2)),
		saveOp(ckpt("s1", 4)),
		saveOp(ckpt("s2", 1)),
	}
	var batch []tune.SessionRecord
	for i := 0; i < 5; i++ {
		batch = append(batch, rec("hadoop", fmt.Sprintf("bulk%d", i), i+1))
	}
	ops = append(ops, bulkOp(batch), nearestOp)
	for i := 0; i < 4; i++ {
		ops = append(ops, appendOp(rec("dbms", fmt.Sprintf("w%d", i), 2)))
	}
	return append(ops,
		nearestOp,
		deleteOp(func(int) int { return 0 }), // the oldest: folded by the first delete
		func(s *FileStore, _ *model) (func(*model), error) { return func(*model) {}, s.Compact() },
		func(s *FileStore, _ *model) (func(*model), error) {
			return func(m *model) { delete(m.ckpts, "s2") }, s.DeleteCheckpoint("s2")
		},
	)
}

// lifetimeRun is what one run of the lifetime observed.
type lifetimeRun struct {
	opened   bool    // the fresh Open succeeded
	acked    model   // the acknowledged operations applied
	inflight model   // acked plus the effect of the operation the first fault hit
	hit      int     // that operation's index (-1: no fault, or it hit Open or Close)
	failed   []int   // the operations that returned an error
	wrong    []error // the lookups that disagreed with the model
}

// runLifetime runs the lifetime in dir through fs, continuing past errors,
// calls after (if set) once each operation i has returned, and closes the
// store.
func runLifetime(dir string, fs *faultFS, after func(i int, r *lifetimeRun)) lifetimeRun {
	r := lifetimeRun{acked: model{ckpts: map[string]SessionCheckpoint{}}, hit: -1}
	s, err := openFS(dir, fs)
	if err != nil {
		return r
	}
	r.opened = true
	s.CompactEvery = 4
	for i, op := range lifetime() {
		before := fs.faulted()
		effect, err := op(s, &r.acked)
		if errors.Is(err, errWrongAnswer) {
			r.wrong = append(r.wrong, err)
			continue
		}
		if before == 0 && fs.faulted() > 0 {
			r.hit = i
			r.inflight = r.acked.clone()
			effect(&r.inflight)
		} else if err == nil && r.hit >= 0 {
			effect(&r.inflight)
		}
		if err == nil {
			effect(&r.acked)
		} else {
			r.failed = append(r.failed, i)
		}
		if after != nil {
			after(i, &r)
		}
	}
	if r.hit < 0 {
		r.inflight = r.acked
	}
	s.Close()
	return r
}

// reopen opens dir on the real file system and returns what it holds.
func reopen(t *testing.T, dir string) model {
	t.Helper()
	s := open(t, dir)
	defer s.Close()
	m := model{recs: sessions(t, s), ckpts: map[string]SessionCheckpoint{}}
	cps, err := s.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range cps {
		m.ckpts[cp.SID] = cp
	}
	return m
}

// crashImage copies the files of the store in dir — what the directory holds
// if its process dies now — to a new directory.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	for _, sub := range []string{"", checkpointDir} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if ent.IsDir() || ent.Name() == lockFile {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, sub, ent.Name()))
			if err == nil {
				err = os.MkdirAll(filepath.Join(img, sub), 0o755)
			}
			if err == nil {
				err = os.WriteFile(filepath.Join(img, sub, ent.Name()), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return img
}

// TestFaultAtEveryWriteBoundary replays the scripted lifetime once cleanly,
// counting its file-system calls, and then once per call k and fault mode:
// the k-th call fails once; the k-th call, if a Write, lands half its bytes
// and fails once; every call from the k-th on fails (a crash). Each run is
// closed and reopened on the real file system:
//
//   - Open succeeds — after a fault that failed the first Open, empty.
//   - After a one-off fault the store holds exactly what was acknowledged,
//     records and checkpoints both; no operation but the faulted one failed;
//     and from the fault on, a crash image taken after each operation holds
//     exactly what was acknowledged so far: the store kept working, durably.
//   - After a crash it holds what was acknowledged, or that plus the
//     operation the crash interrupted (a bulk batch whole or not at all).
func TestFaultAtEveryWriteBoundary(t *testing.T) {
	clean := newFaultFS()
	want := runLifetime(t.TempDir(), clean, nil)
	if !want.opened || len(want.failed) > 0 || len(want.wrong) > 0 {
		t.Fatalf("the lifetime fails without faults: opened %v, failed ops %v, wrong lookups %v", want.opened, want.failed, want.wrong)
	}
	ops := clean.calls
	t.Logf("a clean lifetime makes %d file-system calls", len(ops))
	for k := 1; k <= len(ops); k++ {
		modes := []faultMode{
			{"fail", false, plan(func(call int) bool { return call == k }, fail)},
			{"crash", true, plan(func(call int) bool { return call >= k }, fail)},
		}
		if ops[k-1] == "Write" {
			modes = append(modes, faultMode{"short", false, plan(func(call int) bool { return call == k }, short)})
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%03d-%s/%s", k, ops[k-1], mode.name), func(t *testing.T) {
				dir := t.TempDir()
				fs := newFaultFS()
				fs.fault = mode.fault
				var durable func(int, *lifetimeRun)
				if !mode.crash {
					durable = func(i int, r *lifetimeRun) {
						if r.hit < 0 {
							return
						}
						if img := reopen(t, crashImage(t, dir)); !r.acked.equal(img) {
							t.Fatalf("after operation %d (the fault hit %d) a crash image holds\n%s\nwant the acknowledged\n%s", i, r.hit, img, r.acked)
						}
					}
				}
				got := runLifetime(dir, fs, durable)
				if fs.faulted() == 0 {
					t.Fatal("the fault never fired: the lifetime is not deterministic")
				}
				for _, err := range got.wrong {
					t.Error(err)
				}
				live := reopen(t, dir)
				switch {
				case !got.opened:
					if !live.equal(model{}) {
						t.Fatalf("a failed first Open left\n%s", live)
					}
				case !mode.crash:
					for _, i := range got.failed {
						if i != got.hit {
							t.Errorf("operation %d failed after the fault hit operation %d", i, got.hit)
						}
					}
					if !got.acked.equal(live) {
						t.Errorf("after reopen the store holds\n%s\nwant the acknowledged\n%s", live, got.acked)
					}
				default:
					// The interrupted operation touched records or checkpoints,
					// not both, so each may show it or not independently.
					if !sameRecs(live, got.acked) && !sameRecs(live, got.inflight) || !sameCkpts(live, got.acked) && !sameCkpts(live, got.inflight) {
						t.Errorf("after reopen the store holds\n%s\nwant the acknowledged\n%s\nor that with operation %d\n%s", live, got.acked, got.hit, got.inflight)
					}
				}
			})
		}
	}
}

func TestFaultAtEveryWriteBoundaryRace3(t *testing.T) { TestFaultAtEveryWriteBoundary(t) }

type faultMode struct {
	name  string
	crash bool // the fault persists: every later call fails too
	fault func(call int, op string) faultKind
}

// plan faults the calls hit selects with k.
func plan(hit func(call int) bool, k faultKind) func(int, string) faultKind {
	return func(call int, _ string) faultKind {
		if hit(call) {
			return k
		}
		return pass
	}
}

// equal reports whether m and o hold the same records and checkpoints.
func (m model) equal(o model) bool { return sameRecs(m, o) && sameCkpts(m, o) }

func sameRecs(m, o model) bool {
	return len(m.recs) == 0 && len(o.recs) == 0 || reflect.DeepEqual(m.recs, o.recs)
}

func sameCkpts(m, o model) bool {
	return reflect.DeepEqual(m.checkpoints(), o.checkpoints())
}

func (m model) String() string {
	ids := make([]int64, len(m.recs))
	for i, st := range m.recs {
		ids[i] = st.ID
	}
	trials := map[string]int{}
	for sid, cp := range m.ckpts {
		trials[sid] = cp.Trials
	}
	return fmt.Sprintf("records %v, checkpoint trials %v", ids, trials)
}
