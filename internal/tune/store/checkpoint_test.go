package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/tune"
)

func ckpt(sid string, trials int) SessionCheckpoint {
	cp := SessionCheckpoint{
		SID:       sid,
		Spec:      json.RawMessage(`{"system":"dbms"}`),
		Trials:    trials,
		UpdatedAt: time.Unix(1700000000, 0).UTC(),
	}
	for i := 0; i < trials; i++ {
		cp.Replay.Trials = append(cp.Replay.Trials, tune.ReplayTrial{
			Vector: []float64{float64(i) / 10},
			Result: tune.Result{Time: float64(100 - i)},
		})
	}
	cp.Replay.RunsReserved = int64(trials)
	return cp
}

func logPath(dir, sid string) string {
	return filepath.Join(dir, checkpointDir, sid+ckptLogExt)
}

// loadOne returns the single checkpoint the store holds.
func loadOne(t *testing.T, s *FileStore) SessionCheckpoint {
	t.Helper()
	cps, err := s.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("loaded %d checkpoints, want 1", len(cps))
	}
	return cps[0]
}

// wantLoaded asserts the store holds exactly one checkpoint, equal to want.
func wantLoaded(t *testing.T, s *FileStore, want SessionCheckpoint, when string) {
	t.Helper()
	if got := loadOne(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: loaded %+v\nwant %+v", when, got, want)
	}
}

// TestCheckpointRoundTrip: checkpoints survive a save/reopen cycle intact,
// later saves for the same session supersede earlier ones — by appending to
// the session's log, not rewriting it — and deletes (also of absent sessions)
// are clean.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.SaveCheckpoint(ckpt("s1", 2)); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(logPath(dir, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint(ckpt("s1", 5)); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(logPath(dir, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(second, first) || bytes.Count(second, []byte("\n")) != bytes.Count(first, []byte("\n"))+1 {
		t.Fatalf("second save did not append one line to the log:\n%s\nthen\n%s", first, second)
	}
	s.Close()

	s2 := open(t, dir)
	wantLoaded(t, s2, ckpt("s1", 5), "after reopen")

	if err := s2.DeleteCheckpoint("s1"); err != nil {
		t.Fatal(err)
	}
	if err := s2.DeleteCheckpoint("s1"); err != nil {
		t.Fatalf("deleting an absent checkpoint = %v, want nil", err)
	}
	if cps, _ := s2.Checkpoints(); len(cps) != 0 {
		t.Errorf("%d checkpoints after delete", len(cps))
	}
}

func TestCheckpointRoundTripRace3(t *testing.T) { TestCheckpointRoundTrip(t) }

// TestCheckpointResumedSessionAppends: a store that did not create a log (the
// next daemon lifetime) adopts it on the session's first save and appends
// only the new trials; the bytes already on disk are not rewritten.
func TestCheckpointResumedSessionAppends(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for _, n := range []int{0, 2, 4} {
		if err := s.SaveCheckpoint(ckpt("s1", n)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	before, err := os.ReadFile(logPath(dir, "s1"))
	if err != nil {
		t.Fatal(err)
	}

	s2, fs := openFaulty(t, dir)
	written := fs.written.Load()
	if err := s2.SaveCheckpoint(ckpt("s1", 7)); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(logPath(dir, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if written = fs.written.Load() - written; !bytes.HasPrefix(after, before) || written != int64(len(after)-len(before)) {
		t.Fatalf("resumed save wrote %d bytes, log grew %d → %d: not an append", written, len(before), len(after))
	}
	wantLoaded(t, s2, ckpt("s1", 7), "after the resumed save")
}

func TestCheckpointResumedSessionAppendsRace3(t *testing.T) { TestCheckpointResumedSessionAppends(t) }

// TestCheckpointRewriteFallback: a state that does not extend the open log —
// a different spec, or fewer trials — replaces the log whole, and what loads
// afterwards is exactly that state.
func TestCheckpointRewriteFallback(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	save := func(cp SessionCheckpoint) {
		t.Helper()
		if err := s.SaveCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		wantLoaded(t, s, cp, "after the save")
	}
	save(ckpt("s1", 0))
	save(ckpt("s1", 4))
	save(ckpt("s1", 2)) // fewer trials
	respec := ckpt("s1", 3)
	respec.Spec = json.RawMessage(`{"system":"spark"}`)
	save(respec) // different spec
	respec = ckpt("s1", 5)
	respec.Spec = json.RawMessage(`{"system":"spark"}`)
	save(respec) // and the rewritten log is appendable again
	if ents, _ := os.ReadDir(filepath.Join(dir, checkpointDir)); len(ents) != 1 {
		t.Errorf("rewrites left %d files in checkpoints/, want just the log", len(ents))
	}
}

func TestCheckpointRewriteFallbackRace3(t *testing.T) { TestCheckpointRewriteFallback(t) }

// TestCheckpointsNaturalOrder: session ids sharing a prefix sort by their
// numeric suffix — s2 before s10 — so resume order matches creation order.
func TestCheckpointsNaturalOrder(t *testing.T) {
	s := open(t, t.TempDir())
	for _, sid := range []string{"s10", "s2", "s1", "cli-dbms-tpch-x"} {
		if err := s.SaveCheckpoint(ckpt(sid, 1)); err != nil {
			t.Fatal(err)
		}
	}
	cps, err := s.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, cp := range cps {
		order = append(order, cp.SID)
	}
	want := []string{"cli-dbms-tpch-x", "s1", "s2", "s10"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("checkpoint order = %v, want %v", order, want)
	}
}

func TestCheckpointsNaturalOrderRace3(t *testing.T) { TestCheckpointsNaturalOrder(t) }

// TestCheckpointsSkipCorrupt: torn or garbage checkpoint files (the crash
// window), in either form, are skipped, not fatal — the healthy checkpoints
// still load.
func TestCheckpointsSkipCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.SaveCheckpoint(ckpt("s1", 3)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(logPath(dir, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	header := good[:bytes.IndexByte(good, '\n')+1]
	nosid, err := appendCkptHeader(nil, ckptHeader{Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"torn.jsonl":     header[:len(header)/2],                                   // header cut mid-line
		"unsealed.jsonl": bytes.TrimSuffix(header, []byte("\n")),                   // header missing its newline
		"badcrc.jsonl":   bytes.Replace(header, []byte("dbms"), []byte("dbmz"), 1), // body no longer matches its checksum
		"nosid.jsonl":    nosid,
		"s2.jsonl":       good, // intact, but names session s1
		"s3.jsonl.tmp":   good, // an interrupted rewrite
		"torn.json":      []byte(`{"sid":"torn","re`),
		"nosid.json":     []byte(`{"trials":1}`),
		"notes.txt":      []byte("not a checkpoint"),
	} {
		if err := os.WriteFile(filepath.Join(dir, checkpointDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantLoaded(t, s, ckpt("s1", 3), "checkpoints with corrupt neighbors")
}

func TestCheckpointsSkipCorruptRace3(t *testing.T) { TestCheckpointsSkipCorrupt(t) }

// TestCheckpointRejectsUnsafeSIDs: ids that could escape the checkpoint
// directory are refused.
func TestCheckpointRejectsUnsafeSIDs(t *testing.T) {
	s := open(t, t.TempDir())
	for _, sid := range []string{"", "../escape", "a/b", `a\b`, "dot.dot"} {
		if err := s.SaveCheckpoint(ckpt(sid, 1)); err == nil {
			t.Errorf("SaveCheckpoint(%q) accepted an unsafe sid", sid)
		}
		if err := s.DeleteCheckpoint(sid); err == nil {
			t.Errorf("DeleteCheckpoint(%q) accepted an unsafe sid", sid)
		}
	}
	if len(s.ckpts) != 0 {
		t.Errorf("refused sids left %d log entries behind", len(s.ckpts))
	}
}

func TestCheckpointRejectsUnsafeSIDsRace3(t *testing.T) { TestCheckpointRejectsUnsafeSIDs(t) }

// boundaryLog builds the log of one admission plus three boundaries (2, 4 and
// 6 trials) and returns its bytes and the offset its last line starts at.
func boundaryLog(t testing.TB) (full []byte, lastLine int) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, n := range []int{0, 2, 4, 6} {
		if err := s.SaveCheckpoint(ckpt("s1", n)); err != nil {
			t.Fatal(err)
		}
	}
	full, err = os.ReadFile(logPath(dir, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	return full, bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
}

// TestCheckpointEveryTornTail: however the last line of a log is damaged —
// cut at any byte, or any one byte of it corrupted — the log loads as the
// state before that line, never panics and never yields trials past the bad
// line; the session's next save repairs the tail in place.
func TestCheckpointEveryTornTail(t *testing.T) {
	full, lastLine := boundaryLog(t)
	dir := t.TempDir()
	s, _ := openFaulty(t, dir)
	if err := os.MkdirAll(filepath.Join(dir, checkpointDir), 0o755); err != nil {
		t.Fatal(err)
	}
	check := func(what string, damaged []byte) {
		t.Helper()
		if err := os.WriteFile(logPath(dir, "s1"), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		wantLoaded(t, s, ckpt("s1", 4), what+": want the 2-boundary state")
		if err := s.SaveCheckpoint(ckpt("s1", 6)); err != nil {
			t.Fatalf("%s: save after damage: %v", what, err)
		}
		wantLoaded(t, s, ckpt("s1", 6), what+": after repair want the 3-boundary state")
		if repaired, _ := os.ReadFile(logPath(dir, "s1")); !bytes.Equal(repaired, full) {
			t.Fatalf("%s: repaired log differs from an undamaged one:\n%s\nwant\n%s", what, repaired, full)
		}
		// Drop the open log so the next case starts from the file alone.
		if err := s.DeleteCheckpoint("s1"); err != nil {
			t.Fatal(err)
		}
	}
	for cut := lastLine; cut < len(full); cut++ {
		check(fmt.Sprintf("cut at byte %d of %d", cut, len(full)), full[:cut])
	}
	for at := lastLine; at < len(full); at++ {
		for _, mask := range []byte{0xFF, 0x01} {
			damaged := append([]byte(nil), full...)
			damaged[at] ^= mask
			check(fmt.Sprintf("byte %d ^ %#x", at, mask), damaged)
		}
	}
}

func TestCheckpointEveryTornTailRace3(t *testing.T) { TestCheckpointEveryTornTail(t) }

// TestCheckpointFailedSaveRecovers: a short write or a failed fsync fails the
// save, leaves the log at its last good length, and the next successful save
// round-trips the full state. Every save — appending, failing or rewriting —
// calls File.Sync at most once, and every successful one exactly once.
func TestCheckpointFailedSaveRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(fs *faultFS)
	}{
		{"short write", func(fs *faultFS) { fs.once("Write", short) }},
		{"failed fsync", func(fs *faultFS) { fs.once("Sync", fail) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, fs := openFaulty(t, dir)
			opened := fs.fileSyncs.Load()
			for i, n := range []int{0, 2} {
				if err := s.SaveCheckpoint(ckpt("s1", n)); err != nil {
					t.Fatal(err)
				}
				if got := fs.fileSyncs.Load() - opened; got != int64(i+1) {
					t.Fatalf("%d File.Sync calls after %d saves", got, i+1)
				}
			}
			good, err := os.ReadFile(logPath(dir, "s1"))
			if err != nil {
				t.Fatal(err)
			}

			tc.arm(fs)
			if err := s.SaveCheckpoint(ckpt("s1", 4)); err == nil {
				t.Fatal("save with an injected fault reported success")
			}
			if left, _ := os.ReadFile(logPath(dir, "s1")); !bytes.Equal(left, good) {
				t.Fatalf("failed save left the log at %d bytes, last good length %d", len(left), len(good))
			}
			wantLoaded(t, s, ckpt("s1", 2), "after the failed save")

			syncs := fs.fileSyncs.Load()
			if err := s.SaveCheckpoint(ckpt("s1", 6)); err != nil {
				t.Fatalf("save after the fault cleared: %v", err)
			}
			if got := fs.fileSyncs.Load() - syncs; got != 1 {
				t.Errorf("recovering save called File.Sync %d times, want 1", got)
			}
			wantLoaded(t, s, ckpt("s1", 6), "after recovery")
			s.Close()
			wantLoaded(t, open(t, dir), ckpt("s1", 6), "after reopen")
		})
	}
}

func TestCheckpointFailedSaveRecoversRace3(t *testing.T) { TestCheckpointFailedSaveRecovers(t) }

// TestCheckpointSaveBlocksNobodyElse: while one session sits inside its
// checkpoint fsync (parked there holding its log's lock), archive lookups
// and appends, listing, and every other session's saves and deletes complete.
func TestCheckpointSaveBlocksNobodyElse(t *testing.T) {
	s, fs := openFaulty(t, t.TempDir())
	if _, err := s.Append(rec("dbms", "tpch", 3)); err != nil {
		t.Fatal(err)
	}
	fs.once("Sync", park)
	saved := make(chan error, 1)
	go func() { saved <- s.SaveCheckpoint(ckpt("s1", 2)) }()
	<-fs.parked

	others := make(chan error, 1)
	go func() {
		if _, ok := s.Nearest("dbms", map[string]float64{"size": 3}); !ok {
			others <- errors.New("Nearest found nothing")
			return
		}
		s.WarmConfigs("dbms", map[string]float64{"size": 3}, lookupSpace(), 2)
		if _, err := s.Append(rec("dbms", "tpch", 4)); err != nil {
			others <- err
			return
		}
		if err := s.SaveCheckpoint(ckpt("s2", 1)); err != nil {
			others <- err
			return
		}
		if _, err := s.Checkpoints(); err != nil {
			others <- err
			return
		}
		others <- s.DeleteCheckpoint("s2")
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(fs.release)
		t.Fatal("store operations queued behind another session's checkpoint fsync")
	}
	select {
	case err := <-saved:
		t.Fatalf("parked save returned early: %v", err)
	default:
	}
	close(fs.release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSaveBlocksNobodyElseRace3(t *testing.T) { TestCheckpointSaveBlocksNobodyElse(t) }

// TestCheckpointLogsFollowLiveSessions: the store holds one open log per
// checkpointed session and nothing for a deleted one (retained entries would
// be a leak proportional to sessions ever served); concurrent sessions each
// saving, listing and deleting run clean under the race detector; a closed
// store refuses saves.
func TestCheckpointLogsFollowLiveSessions(t *testing.T) {
	s := open(t, t.TempDir())
	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		sid := fmt.Sprintf("s%d", i+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, n := range []int{0, 1, 3} {
					if err := s.SaveCheckpoint(ckpt(sid, n)); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := s.Checkpoints(); err != nil {
					t.Error(err)
				}
				if round < 2 {
					if err := s.DeleteCheckpoint(sid); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(s.ckpts) != sessions {
		t.Fatalf("%d open logs for %d live sessions", len(s.ckpts), sessions)
	}
	cps, err := s.Checkpoints()
	if err != nil || len(cps) != sessions {
		t.Fatalf("%d checkpoints (err %v), want %d", len(cps), err, sessions)
	}
	for _, cp := range cps {
		if cp.Trials != 3 {
			t.Errorf("%s reloaded with %d trials, want 3", cp.SID, cp.Trials)
		}
		if err := s.DeleteCheckpoint(cp.SID); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.ckpts) != 0 {
		t.Fatalf("%d open logs after every session was deleted", len(s.ckpts))
	}
	s.Close()
	if err := s.SaveCheckpoint(ckpt("s1", 1)); err == nil {
		t.Error("closed store accepted a checkpoint")
	}
}

func TestCheckpointLogsFollowLiveSessionsRace3(t *testing.T) { TestCheckpointLogsFollowLiveSessions(t) }

// benchTrial is a trial the size the dbms model produces: a 16-knob vector
// and 22 runtime counters, about 1.2 KB of JSON.
func benchTrial(i int) tune.ReplayTrial {
	tr := tune.ReplayTrial{Result: tune.Result{Time: 1293.1465420660884 / float64(i+1), Cost: 0.1608979123150373}}
	for d := 0; d < 16; d++ {
		tr.Vector = append(tr.Vector, 0.26463763506057986*float64(d+1)/float64(i+17))
	}
	tr.Result.Metrics = map[string]float64{}
	for m := 0; m < 22; m++ {
		tr.Result.Metrics[fmt.Sprintf("runtime_counter_%02d", m)] = 88643.0425162951 * float64(m) / float64(i+3)
	}
	return tr
}

// BenchmarkCheckpointSession is one session's checkpoint traffic as the
// daemon issues it: the admission save, seven boundary saves of a history
// growing to 30 trials, then the delete.
func BenchmarkCheckpointSession(b *testing.B) {
	s, fs := openFaulty(b, b.TempDir())
	cp := SessionCheckpoint{SID: "b1", Spec: json.RawMessage(`{"system":"dbms","workload":"tpch","tuner":"ituned","seed":42,"budget":{"trials":30},"warm_start":true}`)}
	for i := 0; i < 30; i++ {
		cp.Replay.Trials = append(cp.Replay.Trials, benchTrial(i))
	}
	boundaries := []int{0, 6, 10, 14, 18, 22, 26, 30}
	written, syncs := fs.written.Load(), fs.fileSyncs.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range boundaries {
			at := cp
			at.Replay = tune.Replay{Trials: cp.Replay.Trials[:n], RunsReserved: int64(n)}
			at.Trials, at.UpdatedAt = n, time.Now()
			if err := s.SaveCheckpoint(at); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.DeleteCheckpoint(cp.SID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fs.written.Load()-written)/float64(b.N), "written-B/session")
	b.ReportMetric(float64(fs.fileSyncs.Load()-syncs)/float64(b.N), "fsyncs/session")
}

// TestSplitSID: the one session-id parser, behind both checkpoint ordering
// and the daemon's next fresh id after a restart.
func TestSplitSID(t *testing.T) {
	for _, c := range []struct {
		sid    string
		prefix string
		n      int64
		ok     bool
	}{
		{"s9", "s", 9, true},
		{"s10", "s", 10, true},
		{"cli-dbms-tpch-ituned-42", "cli-dbms-tpch-ituned-", 42, true},
		{"cli-dbms-tpch-ituned-hyperband-7", "cli-dbms-tpch-ituned-hyperband-", 7, true},
		{"s99999999999999999999", "s99999999999999999999", 0, false}, // overflows int64
		{"manual", "manual", 0, false},
		{"", "", 0, false},
	} {
		prefix, n, ok := SplitSID(c.sid)
		if prefix != c.prefix || n != c.n || ok != c.ok {
			t.Errorf("SplitSID(%q) = (%q, %d, %v), want (%q, %d, %v)", c.sid, prefix, n, ok, c.prefix, c.n, c.ok)
		}
	}
	for _, c := range []struct {
		a, b string
		less bool
	}{
		{"s9", "s10", true},
		{"s10", "s9", false},
		{"cli-dbms-tpch-ituned-9", "cli-dbms-tpch-ituned-42", true},
		{"s99999999999999999999", "s9", false}, // no number: lexical order
		{"cli-dbms-tpch-ituned-42", "s1", true},
	} {
		if got := sidLess(c.a, c.b); got != c.less {
			t.Errorf("sidLess(%q, %q) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}
