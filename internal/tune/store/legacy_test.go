package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func walAdd(t *testing.T, id int64, rec interface{}) string {
	t.Helper()
	data, err := json.Marshal(map[string]interface{}{"op": "add", "id": id, "record": rec})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// wantRefused opens dir and requires the legacy-layout refusal naming file,
// with the directory left exactly as it was and not locked.
func wantRefused(t *testing.T, dir, file string) {
	t.Helper()
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err == nil {
		s.Close()
		t.Fatalf("Open accepted a directory holding %s", file)
	}
	for _, want := range []string{file, lastLegacyRelease} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ents []os.DirEntry) (out []string) {
		for _, e := range ents {
			if e.Name() != lockFile {
				out = append(out, e.Name())
			}
		}
		return out
	}
	if !reflect.DeepEqual(names(before), names(after)) {
		t.Errorf("refused Open changed the directory: %v → %v", names(before), names(after))
	}
	if _, err := os.Stat(file); err != nil {
		t.Errorf("refused Open touched %s: %v", file, err)
	}
}

// TestOpenRefusesV1Snapshot: a v1 directory (snapshot.json, no MANIFEST) is
// neither migrated nor opened as an empty store — Open fails naming the
// snapshot, whether or not it decodes. Beside a MANIFEST the same file is a
// stray: the manifest is the store, and the snapshot is not read.
func TestOpenRefusesV1Snapshot(t *testing.T) {
	for name, snapshot := range map[string]string{
		"intact":  `{"next_id":3,"sessions":[{"id":1,"record":{"system":"dbms","workload":"tpch"}}]}`,
		"corrupt": `{"next_id": 7, "sessions": [{`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			file := filepath.Join(dir, snapshotFile)
			if err := os.WriteFile(file, []byte(snapshot), 0o644); err != nil {
				t.Fatal(err)
			}
			wal := walAdd(t, 4, rec("hadoop", "grep", 2)) + "\n"
			if err := os.WriteFile(filepath.Join(dir, walFile), []byte(wal), 0o644); err != nil {
				t.Fatal(err)
			}
			wantRefused(t, dir, file)
		})
	}

	dir := t.TempDir()
	s := open(t, dir)
	id, err := s.Append(rec("dbms", "tpch", 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	stale := `{"next_id":99,"sessions":[{"id":98,"record":{"system":"spark","workload":"ghost"}}]}`
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := sessions(t, open(t, dir)); len(got) != 1 || got[0].ID != id {
		t.Fatalf("snapshot beside a MANIFEST leaked into the store: %+v", got)
	}
}

// TestOpenRefusesLegacyCheckpoint: a whole-object checkpoints/<sid>.json is a
// resumable session this release cannot read. Open fails naming it — before
// any caller can list checkpoints and resume without it — and the logs beside
// it are untouched.
func TestOpenRefusesLegacyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.SaveCheckpoint(ckpt("s1", 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	legacy := filepath.Join(dir, checkpointDir, "s7.json")
	data, err := json.Marshal(ckpt("s7", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantRefused(t, dir, legacy)

	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}
	wantLoaded(t, open(t, dir), ckpt("s1", 3), "after clearing the legacy file")
}

// TestOpenWALOnlyDirectory: a directory holding only a WAL (no MANIFEST, no
// snapshot) opens as a store with an empty manifest and the tail intact.
func TestOpenWALOnlyDirectory(t *testing.T) {
	dir := t.TempDir()
	lines := make([]string, 0, 3)
	for i := 1; i <= 3; i++ {
		lines = append(lines, walAdd(t, int64(i), rec("dbms", "tpch", i)))
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	got := sessions(t, s)
	if len(got) != 3 {
		t.Fatalf("WAL-only dir recovered %d sessions, want 3", len(got))
	}
	for i, st := range got {
		if st.ID != int64(i+1) || !reflect.DeepEqual(st.Record, rec("dbms", "tpch", i+1)) {
			t.Fatalf("session %d wrong after open: %+v", i, st)
		}
	}
	if _, ok, err := readManifest(filepath.Join(dir, manifestFile)); err != nil || !ok {
		t.Fatalf("no manifest after WAL-only open: %v", err)
	}
}
