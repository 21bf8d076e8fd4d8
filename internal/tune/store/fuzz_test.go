package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// segBytes writes a small three-record segment and returns its bytes.
func segBytes(t testing.TB) ([]byte, []Stored) {
	t.Helper()
	recs := []Stored{
		{ID: 1, Record: rec("dbms", "tpch", 3)},
		{ID: 2, Record: rec("spark", "pagerank", 2)},
		{ID: 5, Record: rec("dbms", "oltp", 1)},
	}
	var buf bytes.Buffer
	if _, err := writeSegment(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), recs
}

func openSegBytes(t *testing.T, data []byte) (*segment, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000000.seg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return openSegment(path)
}

// TestSegmentIndexCorruptionRecovers: damage anywhere in the index block —
// the CRC catches it — must fall back to scanning the records region,
// recovering every committed record rather than dropping any.
func TestSegmentIndexCorruptionRecovers(t *testing.T) {
	data, recs := segBytes(t)
	indexOff := int64(binary.LittleEndian.Uint64(data[len(data)-segFooterLen:]))
	for _, at := range []int64{indexOff, indexOff + 5, int64(len(data)) - segFooterLen - 1} {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0xFF
		sg, err := openSegBytes(t, mut)
		if err != nil {
			t.Fatalf("corrupt index byte %d: open failed outright: %v", at, err)
		}
		if len(sg.entries) != len(recs) {
			t.Fatalf("corrupt index byte %d: recovered %d records, want %d", at, len(sg.entries), len(recs))
		}
		for i := range recs {
			got, err := sg.readRecord(&sg.entries[i])
			if err != nil {
				t.Fatalf("corrupt index byte %d: record %d unreadable: %v", at, i, err)
			}
			if sg.entries[i].id != recs[i].ID || !reflect.DeepEqual(got, recs[i].Record) {
				t.Fatalf("corrupt index byte %d: record %d mutated", at, i)
			}
		}
		sg.close()
	}
}

// TestSegmentFooterCorruptionRecovers: a clobbered footer (bad magic, wild
// index offset) is indistinguishable from a torn file — recovery scans.
func TestSegmentFooterCorruptionRecovers(t *testing.T) {
	data, recs := segBytes(t)
	for _, at := range []int{len(data) - 1, len(data) - segFooterLen + 2, len(data) - segFooterLen + 9} {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0xFF
		sg, err := openSegBytes(t, mut)
		if err != nil {
			t.Fatalf("corrupt footer byte %d: open failed outright: %v", at, err)
		}
		if len(sg.entries) != len(recs) {
			t.Fatalf("corrupt footer byte %d: recovered %d records, want %d", at, len(sg.entries), len(recs))
		}
		sg.close()
	}
}

// TestSegmentTruncationRecoversPrefix: a segment cut anywhere (a torn copy,
// a partial download) still yields every record whose frame survived, in
// order, and never panics.
func TestSegmentTruncationRecoversPrefix(t *testing.T) {
	data, recs := segBytes(t)
	full, err := openSegBytes(t, data)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int64, len(full.entries))
	for i, e := range full.entries {
		offsets[i] = e.off + int64(e.length)
	}
	full.close()
	for cut := len(segMagic); cut < len(data); cut += 3 {
		want := 0
		for _, end := range offsets {
			if end <= int64(cut) {
				want++
			}
		}
		sg, err := openSegBytes(t, data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: open failed outright: %v", cut, err)
		}
		if len(sg.entries) != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(sg.entries), want)
		}
		for i := 0; i < want; i++ {
			got, err := sg.readRecord(&sg.entries[i])
			if err != nil {
				t.Fatalf("cut at %d: record %d unreadable: %v", cut, i, err)
			}
			if !reflect.DeepEqual(got, recs[i].Record) {
				t.Fatalf("cut at %d: record %d mutated", cut, i)
			}
		}
		sg.close()
	}
}

// FuzzSegmentIndexDecode hammers the binary index decoder: arbitrary bytes
// must never panic, and entries that do decode must respect the claimed
// file bounds.
func FuzzSegmentIndexDecode(f *testing.F) {
	recs := []Stored{
		{ID: 1, Record: rec("dbms", "tpch", 2)},
		{ID: 2, Record: rec("spark", "kmeans", 1)},
	}
	entries := make([]segEntry, 0, len(recs))
	off := int64(len(segMagic)) + 8
	for _, st := range recs {
		e := entryFor(st)
		e.off = off
		e.length = 100
		off += 108
		entries = append(entries, e)
	}
	valid := encodeSegmentIndex(entries)
	f.Add(valid, int64(4096))
	f.Add(valid[:len(valid)/2], int64(4096))
	f.Add(valid, int64(10)) // bounds violation: every offset out of range
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, int64(1<<40)) // huge claimed string table
	f.Fuzz(func(t *testing.T, buf []byte, fileSize int64) {
		entries, err := decodeSegmentIndex(buf, fileSize)
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.off < int64(len(segMagic))+8 || e.off+int64(e.length) > fileSize {
				t.Fatalf("decoded entry escapes file bounds: off=%d len=%d size=%d", e.off, e.length, fileSize)
			}
		}
	})
}

// FuzzSegmentOpen opens arbitrary bytes as a segment file: open may refuse,
// but it must never panic, and whatever records it reports must be readable
// without panicking.
func FuzzSegmentOpen(f *testing.F) {
	data, _ := segBytes(f)
	f.Add(data)
	f.Add(data[:len(data)/3]) // torn mid-records
	mut := append([]byte(nil), data...)
	mut[len(mut)-10] ^= 0xFF // corrupt footer
	f.Add(mut)
	mut2 := append([]byte(nil), data...)
	mut2[12] ^= 0xFF // corrupt first record frame
	f.Add(mut2)
	f.Add([]byte("RSEGV1\r\n"))
	f.Add([]byte("not a segment"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sg, err := openSegBytes(t, data)
		if err != nil {
			return
		}
		defer sg.close()
		for i := range sg.entries {
			_, _ = sg.readRecord(&sg.entries[i]) // errors allowed, panics not
		}
	})
}

// FuzzWALReplay opens a store whose WAL is arbitrary bytes: recovery must
// not panic, must leave a loadable directory, and an append after recovery
// must survive a reopen.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(`{"op":"add","id":1,"record":{"system":"dbms","workload":"tpch"}}` + "\n"))
	f.Add([]byte(`{"op":"add","id":1,"record":{"system":"dbms","workload":"tpch"}}` + "\n" + `{"op":"del","id":1}` + "\n"))
	f.Add([]byte(`{"op":"add","id":1,"record":{"system":"dbms"`)) // torn mid-JSON
	f.Add([]byte("garbage\n"))
	f.Add([]byte{})
	f.Add([]byte(`{"op":"add","id":-5,"record":{"system":"x","workload":"y"}}` + "\n"))
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		before := s.Len()
		if _, err := s.Sessions(); err != nil {
			t.Fatalf("recovered store cannot materialize: %v", err)
		}
		if _, err := s.Append(rec("dbms", "tpch", 1)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer s2.Close()
		if s2.Len() != before+1 {
			t.Fatalf("recovered state unstable: %d live before append, %d after reopen", before, s2.Len())
		}
	})
}

// FuzzCheckpointLog loads arbitrary bytes as a session's checkpoint log:
// loading must not panic and never fails the listing; whatever state it
// yields, the session's next save — one more trial — must repair the file so
// that the next process reloads exactly that state.
func FuzzCheckpointLog(f *testing.F) {
	full, lastLine := boundaryLog(f)
	f.Add(full)
	f.Add(full[:lastLine])                      // ends cleanly one boundary earlier
	f.Add(full[:lastLine+7])                    // torn inside the last line
	f.Add(full[:len(full)-1])                   // last line missing its newline
	f.Add(full[:bytes.IndexByte(full, '\n')+1]) // header only
	flipped := append([]byte(nil), full...)
	flipped[lastLine+20] ^= 0x01 // last line fails its checksum
	f.Add(flipped)
	f.Add(append(append([]byte(nil), full...), "garbage\n"...))
	f.Add([]byte(`{"crc":0,"body":null}` + "\n"))
	f.Add([]byte(`{"sid":"s1","spec":{},"replay":{"trials":[]}}`)) // the legacy form under the log's name
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, checkpointDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(dir, "s1"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := open(t, dir)
		cps, err := s.Checkpoints()
		if err != nil {
			t.Fatalf("listing beside arbitrary log bytes: %v", err)
		}
		next := ckpt("s1", 0)
		if len(cps) == 1 {
			next = cps[0]
		} else if len(cps) != 0 {
			t.Fatalf("one file loaded as %d checkpoints", len(cps))
		}
		next.Replay.Trials = append(next.Replay.Trials, ckpt("s1", 1).Replay.Trials...)
		next.Replay.RunsReserved++
		next.Trials = len(next.Replay.Trials)
		want, err := json.Marshal(next)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveCheckpoint(next); err != nil {
			t.Fatalf("save over arbitrary log bytes: %v", err)
		}
		s.Close()
		// Compared in wire form: an empty metrics map and an absent one are
		// the same checkpoint.
		if got, _ := json.Marshal(loadOne(t, open(t, dir))); !bytes.Equal(got, want) {
			t.Fatalf("reloaded\n%s\nwant\n%s", got, want)
		}
	})
}

// FuzzManifestRead: the manifest decoder must never panic and must report
// either a clean absence, a manifest, or a corruption error.
func FuzzManifestRead(f *testing.F) {
	f.Add([]byte(`{"version":2,"next_id":7,"seq":1,"segments":["seg-000000.seg"]}`))
	f.Add([]byte(`{"version":2`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), manifestFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _ = readManifest(path)
	})
}
