package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/tune"
)

// rec builds a distinguishable session record.
func rec(system, workload string, n int) tune.SessionRecord {
	r := tune.SessionRecord{
		System:     system,
		Workload:   workload,
		ParamNames: []string{"a", "b"},
		Features:   map[string]float64{"size": float64(n)},
	}
	for i := 0; i < n; i++ {
		r.Trials = append(r.Trials, tune.TrialRecord{
			Vector:  []float64{float64(i) / 10, 1 - float64(i)/10},
			Time:    float64(100 - i),
			Metrics: map[string]float64{"m": float64(i)},
		})
	}
	return r
}

func open(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// Sessions returns the live records in insertion order, reading every
// payload under one read lock: the whole-corpus view the tests check the
// store's other reads against.
func (s *FileStore) Sessions() ([]Stored, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Stored
	var err error
	s.iterLiveLocked(func(ref recRef) bool {
		var rec tune.SessionRecord
		if rec, err = s.readRefLocked(ref); err != nil {
			return false
		}
		out = append(out, Stored{ID: ref.id, Record: rec})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sessions materializes the live records, failing the test on read errors.
func sessions(t *testing.T, s *FileStore) []Stored {
	t.Helper()
	got, err := s.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	id1, err := s.Append(rec("dbms", "tpch", 3))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Append(rec("spark", "pagerank", 2))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("ids collide: %d", id1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, ids are stable, order preserved.
	s2 := open(t, dir)
	got := sessions(t, s2)
	if len(got) != 2 || got[0].ID != id1 || got[1].ID != id2 {
		t.Fatalf("reloaded %+v", got)
	}
	if !reflect.DeepEqual(got[0].Record, rec("dbms", "tpch", 3)) {
		t.Errorf("record 1 mutated: %+v", got[0].Record)
	}
	if spark, err := s2.ForSystem("spark"); err != nil || len(spark) != 1 {
		t.Errorf("per-system view wrong: %+v (err=%v)", spark, err)
	}

	// New ids never reuse old ones, even after deletes.
	if err := s2.Delete(id2); err != nil {
		t.Fatal(err)
	}
	id3, err := s2.Append(rec("hadoop", "grep", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id3 <= id2 {
		t.Errorf("id %d reused after delete of %d", id3, id2)
	}
	if _, ok, err := s2.Get(id2); err != nil || ok {
		t.Errorf("deleted record still visible (ok=%v err=%v)", ok, err)
	}
}

func TestStoreDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	id, _ := s.Append(rec("dbms", "tpch", 2))
	keep, _ := s.Append(rec("dbms", "oltp", 2))
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err == nil {
		t.Error("double delete should error")
	}
	s.Close()
	s2 := open(t, dir)
	got := sessions(t, s2)
	if len(got) != 1 || got[0].ID != keep {
		t.Fatalf("after reopen: %+v", got)
	}
}

// Compact runs a compaction now, whatever the tombstone trigger says.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.compactEvery = 4
	for i := 0; i < 10; i++ {
		if _, err := s.Append(rec("dbms", "tpch", 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Auto-folding must have turned the WAL tail into committed segments.
	man, ok, err := readManifest(filepath.Join(dir, manifestFile))
	if err != nil || !ok {
		t.Fatalf("no manifest after auto-fold: %v", err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("no segments after auto-fold")
	}
	for _, name := range man.Segments {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("committed segment %s unreadable: %v", name, err)
		}
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) >= 10*80 {
		t.Errorf("WAL not truncated by compaction: %d bytes", len(wal))
	}
	s.Close()
	s2 := open(t, dir)
	if s2.Len() != 10 {
		t.Fatalf("lost records across compaction: %d", s2.Len())
	}
	// Explicit compaction with an empty WAL is a no-op that still succeeds.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteHeavyTrafficReopensToTheSameCorpus: deletes outpacing appends
// leave tombstones that reach the live record count, so the store compacts
// itself, more than once; after every delete the trigger is spent, lookups
// agree with the linear scan throughout, and a reopen gives the same corpus.
func TestDeleteHeavyTrafficReopensToTheSameCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	s := open(t, dir)
	s.compactEvery = 8
	var live []int64
	compactions := 0
	for i := 0; i < 500; i++ {
		// 150 appends fill several segments; then three deletes to one append.
		if len(live) == 0 || i < 150 || rng.Float64() < 0.25 {
			id, err := s.Append(randOracleRecord(rng, "dbms"))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
			continue
		}
		at := rng.Intn(len(live))
		tombstones := len(s.dead)
		if err := s.Delete(live[at]); err != nil {
			t.Fatal(err)
		}
		live = append(live[:at], live[at+1:]...)
		if tombstones > 0 && len(s.dead) == 0 {
			compactions++
		}
		if d := len(s.dead); d >= s.compactEvery && d >= s.Len() {
			t.Fatalf("operation %d: %d tombstones, %d live records, and no compaction", i, d, s.Len())
		}
		if i%29 == 0 {
			assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng))
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions, want several", compactions)
	}
	before := sessions(t, s)
	ids := make([]int64, len(before))
	for i, st := range before {
		ids[i] = st.ID
	}
	if !reflect.DeepEqual(ids, live) {
		t.Fatalf("live ids %v, want %v", ids, live)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if after := sessions(t, s2); !reflect.DeepEqual(after, before) {
		t.Fatalf("reopened store holds %d records, want the %d it held before", len(after), len(before))
	}
	for q := 0; q < 4; q++ {
		assertStoreMatchesOracle(t, s2, "dbms", randOracleQuery(rng))
	}
}

func TestStoreClosedRejectsWrites(t *testing.T) {
	s := open(t, t.TempDir())
	s.Close()
	if _, err := s.Append(rec("dbms", "tpch", 1)); err == nil {
		t.Error("append after close should error")
	}
	if err := s.Compact(); err == nil {
		t.Error("compact after close should error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestStoreCrashSafety truncates the WAL at every byte boundary of the last
// record and asserts load recovers all complete records and drops the torn
// tail — the crash model for a partial write at the end of the log.
func TestStoreCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	ids := make([]int64, 3)
	for i := range ids {
		id, err := s.Append(rec("dbms", "tpch", i+1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	s.Close()
	walPath := filepath.Join(dir, walFile)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the last record begins: the byte after the second newline.
	lastStart := 0
	for i, nl := 0, 0; i < len(full); i++ {
		if full[i] == '\n' {
			nl++
			if nl == len(ids)-1 {
				lastStart = i + 1
				break
			}
		}
	}
	if lastStart == 0 || lastStart >= len(full) {
		t.Fatalf("could not locate last record (start %d of %d)", lastStart, len(full))
	}

	for cut := lastStart; cut <= len(full); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, walFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir2)
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		got := sessions(t, s2)
		wantComplete := 2
		if cut == len(full) {
			wantComplete = 3 // nothing torn: the full log survives
		}
		if len(got) != wantComplete {
			t.Fatalf("cut at %d of %d: recovered %d records, want %d",
				cut, len(full), len(got), wantComplete)
		}
		for i, st := range got {
			if st.ID != ids[i] {
				t.Fatalf("cut at %d: record %d has id %d, want %d", cut, i, st.ID, ids[i])
			}
			if !reflect.DeepEqual(st.Record, rec("dbms", "tpch", i+1)) {
				t.Fatalf("cut at %d: record %d corrupted", cut, i)
			}
		}
		// Recovery must leave a clean log: appending works and the torn
		// bytes never resurface on the next load.
		id, err := s2.Append(rec("spark", "pagerank", 1))
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, err := Open(dir2)
		if err != nil {
			t.Fatalf("cut at %d: reopen after recovery: %v", cut, err)
		}
		if got := sessions(t, s3); len(got) != wantComplete+1 || got[len(got)-1].ID != id {
			t.Fatalf("cut at %d: post-recovery state wrong: %+v", cut, got)
		}
		s3.Close()
	}
}

// TestStoreConcurrentAppends exercises the mutex under the race detector.
func TestStoreConcurrentAppends(t *testing.T) {
	s := open(t, t.TempDir())
	s.compactEvery = 8
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				if _, err := s.Append(rec("dbms", "tpch", 1)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 40 {
		t.Fatalf("lost appends: %d", s.Len())
	}
	seen := map[int64]bool{}
	for _, sum := range s.Summaries() {
		if seen[sum.ID] {
			t.Fatalf("duplicate id %d", sum.ID)
		}
		seen[sum.ID] = true
	}
}

// TestForSystemReadsOnlyItsOwnPayloads: the per-system read takes each
// record's system from the segment index, so another system's payload is
// never read — here every spark payload on disk is damaged, and the dbms read
// (segments and WAL tail) does not notice, while reads that do touch the
// damage report it.
func TestForSystemReadsOnlyItsOwnPayloads(t *testing.T) {
	s := open(t, t.TempDir())
	s.compactEvery = 4 // two segments of four, then a tail of two
	var want []tune.SessionRecord
	for i := 0; i < 10; i++ {
		r := rec("dbms", fmt.Sprintf("wl%d", i), 2+i)
		if i%2 == 1 {
			r = rec("spark", fmt.Sprintf("wl%d", i), 2+i)
		} else {
			want = append(want, r)
		}
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segs) != 2 || len(s.tailOrder) != 2 {
		t.Fatalf("layout: %d segments, %d tail records; want 2 and 2", len(s.segs), len(s.tailOrder))
	}
	for _, sg := range s.segs {
		f, err := os.OpenFile(sg.path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sg.entries {
			if e.system == "spark" {
				if _, err := f.WriteAt([]byte("XXXX"), e.off); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.Close()
	}
	got, err := s.ForSystem("dbms")
	if err != nil {
		t.Fatalf("ForSystem(dbms) read a foreign payload: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ForSystem(dbms) = %d records, want the %d appended", len(got), len(want))
	}
	if got, err := s.ForSystem("hadoop"); err != nil || got != nil {
		t.Fatalf("ForSystem(hadoop) = %v, %v; want nothing, read nothing", got, err)
	}
	if _, err := s.ForSystem("spark"); err == nil {
		t.Fatal("ForSystem(spark) returned damaged payloads without an error")
	}
	if _, err := s.Sessions(); err == nil {
		t.Fatal("the damage is not visible to a full read: the test corrupts nothing")
	}
}

// TestStoreSingleOwner: a second Open on a held directory fails with a
// descriptive error instead of silently sharing the WAL, and the directory
// becomes openable again once the owner closes.
func TestStoreSingleOwner(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	done := make(chan error, 1)
	go func() {
		s2, err := Open(dir)
		if err == nil {
			s2.Close()
		}
		done <- err
	}()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open = %v, want a lock error", err)
	}
	s.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	s3.Close()
}

// TestIndexStatsCountsBuilds: the first lookup collects the corpus (all a
// lookup for an absent system has to do), the first one per system builds its
// tree, later ones and appends inside the tail bound reuse it, and a delete
// invalidates it.
func TestIndexStatsCountsBuilds(t *testing.T) {
	s := open(t, t.TempDir())
	var ids []int64
	for n := 1; n <= 3; n++ {
		id, err := s.Append(rec("dbms", "tpch", n))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q := map[string]float64{"size": 2}
	want := func(when string, builds int64, points int) {
		t.Helper()
		got := s.IndexStats()
		if got.Builds != builds || got.Points != points || (builds > 0) != (got.LastBuild > 0) {
			t.Fatalf("%s: IndexStats = %+v, want %d builds over %d points", when, got, builds, points)
		}
	}
	want("before any lookup", 0, 0)
	s.Nearest("spark", q)
	want("lookup for an absent system", 1, 0)
	s.Nearest("dbms", q)
	want("first lookup", 2, 3)
	s.Nearest("dbms", q)
	if _, err := s.Append(rec("dbms", "oltp", 1)); err != nil {
		t.Fatal(err)
	}
	s.Nearest("dbms", q)
	want("lookups on a ready index", 2, 3)
	if err := s.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	s.Nearest("dbms", q)
	want("lookup after a delete", 3, 3)
}

// lookupSpace matches the two-parameter records rec() builds, so
// WarmConfigs finds transferable sessions.
func lookupSpace() *tune.Space {
	return tune.NewSpace(tune.Float("a", 0, 1, 0.5), tune.Float("b", 0, 1, 0.5))
}

// TestCompactBytesTriggersFold: the size trigger alone (count trigger
// disabled) folds the WAL tail into a committed segment once the log
// outgrows compactBytes — the guard that keeps replay time bounded when a
// workload writes few but large sessions.
func TestCompactBytesTriggersFold(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.compactEvery = 0 // isolate the size trigger
	s.compactBytes = 4 << 10
	for i := 0; i < 12; i++ {
		if _, err := s.Append(rec("dbms", "tpch", 40)); err != nil {
			t.Fatal(err)
		}
	}
	man, ok, err := readManifest(filepath.Join(dir, manifestFile))
	if err != nil || !ok {
		t.Fatalf("no manifest after size-triggered fold: %v", err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("no segments: compactBytes never fired")
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) >= s.compactBytes {
		t.Errorf("WAL still %d bytes after folding, trigger at %d", len(wal), s.compactBytes)
	}
	s.Close()
	s2 := open(t, dir)
	if s2.Len() != 12 {
		t.Fatalf("lost records across size-triggered fold: %d", s2.Len())
	}

	// Both triggers off: the WAL grows unbounded and nothing folds.
	dir2 := t.TempDir()
	u := open(t, dir2)
	u.compactEvery = 0
	u.compactBytes = 0
	for i := 0; i < 12; i++ {
		if _, err := u.Append(rec("dbms", "tpch", 40)); err != nil {
			t.Fatal(err)
		}
	}
	if man, ok, err := readManifest(filepath.Join(dir2, manifestFile)); err == nil && ok && len(man.Segments) > 0 {
		t.Error("segments folded with both compaction triggers disabled")
	}
}

// TestConcurrentReadersDuringArchive: lookups, payload reads, and full
// materializations run concurrently with appends and an explicit Compact.
// The assertions are deliberately weak (no lookup may error or return a
// malformed record) — the real check is the race detector over the RLock
// fast path in lookupWalk and the read methods.
func TestConcurrentReadersDuringArchive(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.compactEvery = 8
	for i := 0; i < 16; i++ {
		if _, err := s.Append(rec("dbms", fmt.Sprintf("wl%d", i), 4+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	feats := map[string]float64{"size": 5}
	space := lookupSpace()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (i + r) % 4 {
				case 0:
					if _, found := s.Nearest("dbms", feats); !found {
						t.Error("Nearest lost the corpus mid-archive")
						return
					}
				case 1:
					if recs, err := s.ForSystem("dbms"); err != nil || len(recs) == 0 {
						t.Errorf("ForSystem returned %d records mid-archive (err=%v)", len(recs), err)
						return
					}
				case 2:
					if cfgs := s.WarmConfigs("dbms", feats, space, 3); len(cfgs) == 0 {
						t.Error("WarmConfigs returned nothing mid-archive")
						return
					}
				case 3:
					if _, err := s.Sessions(); err != nil {
						t.Errorf("Sessions mid-archive: %v", err)
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < 48; i++ {
		if _, err := s.Append(rec("dbms", fmt.Sprintf("new%d", i), 3)); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != 64 {
		t.Fatalf("records lost under concurrent readers: %d", s.Len())
	}
}
