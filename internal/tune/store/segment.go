package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/tune"
)

// A segment is an immutable run of archived sessions: CRC-framed record
// payloads followed by a binary index block and a fixed footer. Opening a
// repository reads only each segment's footer and index — record payloads
// stay on disk until a lookup asks for them — so open cost scales with the
// index, not the corpus.
//
// Layout:
//
//	[8]  magic "RSEGV1\r\n"
//	     records:  repeat { u32 payloadLen | u32 crc32(payload) | payload }
//	               payload is the JSON of Stored{id, record}
//	     index:    string table  u32 n { u32 len | bytes }...
//	               entries       u32 n { entry }...
//	[24] footer:   u64 indexOff | u32 indexLen | u32 crc32(index) | "RSEGIDX\n"
//
// Every integer is little-endian. Each index entry carries what lookups and
// listings need without touching the record: id, payload location, system,
// workload, parameter arity, trial count, best time, and the sorted feature
// vector (exact float64 bits, so indexed distances are bit-identical to
// distances over the decoded record).
//
// A segment is installed whole (install: temporary file, fsync, rename); the
// manifest references it only after the rename, so a reader never sees a
// partial segment through the manifest. If the index block is damaged
// anyway, the reader falls back to scanning the CRC-framed records region
// and rebuilds the index from the payloads — committed records outlive a
// corrupt index.

var (
	segMagic    = []byte("RSEGV1\r\n")
	segIdxMagic = []byte("RSEGIDX\n")
)

const segFooterLen = 8 + 4 + 4 + 8

// segEntry is one decoded index entry.
type segEntry struct {
	id       int64
	off      int64 // file offset of the payload (past its len/crc frame)
	length   uint32
	nparams  uint16
	ntrials  uint32
	best     float64 // best non-failed full-fidelity trial time; NaN if none
	system   string
	workload string
	feats    []tune.KV // sorted by key
}

// segment is an open, immutable segment file.
type segment struct {
	path    string
	f       *os.File
	entries []segEntry
	// sorted records whether ids ascend in file order (always true for
	// segments this code writes from ordinary histories); id lookups fall
	// back to a linear scan otherwise.
	sorted bool
}

func entriesSorted(entries []segEntry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i].id <= entries[i-1].id {
			return false
		}
	}
	return true
}

func (sg *segment) close() {
	if sg.f != nil {
		sg.f.Close()
	}
}

// readRecord loads and verifies one record payload.
func (sg *segment) readRecord(e *segEntry) (tune.SessionRecord, error) {
	buf := make([]byte, e.length)
	if _, err := sg.f.ReadAt(buf, e.off); err != nil {
		return tune.SessionRecord{}, fmt.Errorf("store: reading record %d from %s: %w", e.id, sg.path, err)
	}
	var hdr [8]byte
	if _, err := sg.f.ReadAt(hdr[:], e.off-8); err != nil {
		return tune.SessionRecord{}, fmt.Errorf("store: reading record %d frame from %s: %w", e.id, sg.path, err)
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != crc32.ChecksumIEEE(buf) {
		return tune.SessionRecord{}, fmt.Errorf("store: record %d in %s fails its checksum", e.id, sg.path)
	}
	var st Stored
	if err := json.Unmarshal(buf, &st); err != nil {
		return tune.SessionRecord{}, fmt.Errorf("store: record %d in %s is corrupt: %w", e.id, sg.path, err)
	}
	return st.Record, nil
}

// entryFor derives the index entry of one record (minus its location).
func entryFor(st Stored) segEntry {
	e := segEntry{
		id:       st.ID,
		system:   st.Record.System,
		workload: st.Record.Workload,
		ntrials:  uint32(len(st.Record.Trials)),
		best:     math.NaN(),
		feats:    tune.FeatureList(st.Record.Features),
	}
	if n := len(st.Record.ParamNames); n <= math.MaxUint16 {
		e.nparams = uint16(n)
	} else {
		e.nparams = math.MaxUint16
	}
	if at := st.Record.BestTrial(); at >= 0 {
		e.best = st.Record.Trials[at].Time
	}
	return e
}

// writeSegment encodes recs (in order) as a complete segment onto dst and
// returns its index entries. A bufio.Writer latches its first error, so only
// the final Flush needs checking.
func writeSegment(dst io.Writer, recs []Stored) ([]segEntry, error) {
	w := bufio.NewWriterSize(dst, 1<<20)
	w.Write(segMagic)
	off := int64(len(segMagic))
	entries := make([]segEntry, 0, len(recs))
	var frame [8]byte
	var payload []byte // one buffer for the segment's payloads
	for i := range recs {
		st := &recs[i]
		var err error
		if payload, err = st.appendJSON(payload[:0]); err != nil {
			return nil, fmt.Errorf("store: encoding record %d: %w", st.ID, err)
		}
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
		w.Write(frame[:])
		w.Write(payload)
		e := entryFor(*st)
		e.off = off + 8
		e.length = uint32(len(payload))
		entries = append(entries, e)
		off += 8 + int64(len(payload))
	}
	index := encodeSegmentIndex(entries)
	w.Write(index)
	var footer [segFooterLen]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(off))
	binary.LittleEndian.PutUint32(footer[8:], uint32(len(index)))
	binary.LittleEndian.PutUint32(footer[12:], crc32.ChecksumIEEE(index))
	copy(footer[16:], segIdxMagic)
	w.Write(footer[:])
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("store: writing segment: %w", err)
	}
	return entries, nil
}

// installSegment durably installs recs as the segment file name and opens it
// for reading. The caller commits it by naming it in the manifest; opening it
// here, before that commit, leaves nothing fallible after it.
func (s *FileStore) installSegment(name string, recs []Stored) (*segment, error) {
	path := s.path(name)
	var entries []segEntry
	err := install(s.fs, path, func(w io.Writer) (err error) {
		entries, err = writeSegment(w, recs)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("store: installing segment: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	return &segment{path: path, f: f, entries: entries, sorted: entriesSorted(entries)}, nil
}

// encodeSegmentIndex serializes the index block: an interned string table
// (system, workload, and feature-key strings in first-use order) followed by
// the entries.
func encodeSegmentIndex(entries []segEntry) []byte {
	var table []string
	refs := map[string]uint32{}
	intern := func(s string) uint32 {
		if r, ok := refs[s]; ok {
			return r
		}
		r := uint32(len(table))
		refs[s] = r
		table = append(table, s)
		return r
	}
	// Intern ahead of encoding so the table length is known up front.
	for i := range entries {
		e := &entries[i]
		intern(e.system)
		intern(e.workload)
		for _, kv := range e.feats {
			intern(kv.K)
		}
	}
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(uint32(len(table)))
	for _, s := range table {
		u32(uint32(len(s)))
		buf = append(buf, s...)
	}
	u32(uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		u64(uint64(e.id))
		u64(uint64(e.off))
		u32(e.length)
		u32(refs[e.system])
		u32(refs[e.workload])
		buf = binary.LittleEndian.AppendUint16(buf, e.nparams)
		u32(e.ntrials)
		u64(math.Float64bits(e.best))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.feats)))
		for _, kv := range e.feats {
			u32(refs[kv.K])
			u64(math.Float64bits(kv.V))
		}
	}
	return buf
}

// errSegIndex marks a segment whose index block cannot be trusted; openers
// fall back to scanning the records region.
type errSegIndex struct{ reason string }

func (e errSegIndex) Error() string { return "store: segment index unusable: " + e.reason }

// decodeSegmentIndex parses an index block. It never panics on hostile
// input: every length is bounds-checked and failures return errSegIndex.
func decodeSegmentIndex(buf []byte, fileSize int64) ([]segEntry, error) {
	at := 0
	fail := func(reason string) ([]segEntry, error) { return nil, errSegIndex{reason} }
	u16 := func() (uint16, bool) {
		if at+2 > len(buf) {
			return 0, false
		}
		v := binary.LittleEndian.Uint16(buf[at:])
		at += 2
		return v, true
	}
	u32 := func() (uint32, bool) {
		if at+4 > len(buf) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(buf[at:])
		at += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if at+8 > len(buf) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(buf[at:])
		at += 8
		return v, true
	}
	nstr, ok := u32()
	if !ok || int64(nstr) > int64(len(buf))/4 {
		return fail("string table header")
	}
	table := make([]string, 0, nstr)
	for i := uint32(0); i < nstr; i++ {
		n, ok := u32()
		if !ok || at+int(n) > len(buf) {
			return fail("string table entry")
		}
		table = append(table, string(buf[at:at+int(n)]))
		at += int(n)
	}
	str := func(r uint32) (string, bool) {
		if int(r) >= len(table) {
			return "", false
		}
		return table[r], true
	}
	nent, ok := u32()
	// 40 bytes is the fixed per-entry size; a larger claim cannot fit.
	if !ok || int64(nent) > int64(len(buf)-at)/40 {
		return fail("entry count")
	}
	entries := make([]segEntry, 0, nent)
	for i := uint32(0); i < nent; i++ {
		var e segEntry
		id, ok1 := u64()
		off, ok2 := u64()
		length, ok3 := u32()
		sysRef, ok4 := u32()
		wlRef, ok5 := u32()
		nparams, ok6 := u16()
		ntrials, ok7 := u32()
		best, ok8 := u64()
		nfeat, ok9 := u16()
		if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8 && ok9) {
			return fail("truncated entry")
		}
		e.id = int64(id)
		e.off = int64(off)
		e.length = length
		e.nparams = nparams
		e.ntrials = ntrials
		e.best = math.Float64frombits(best)
		var okS, okW bool
		e.system, okS = str(sysRef)
		e.workload, okW = str(wlRef)
		if !okS || !okW {
			return fail("string reference out of range")
		}
		if e.off < int64(len(segMagic))+8 || e.off+int64(e.length) > fileSize {
			return fail("record location out of range")
		}
		if nfeat > 0 {
			e.feats = make([]tune.KV, 0, nfeat)
			for j := uint16(0); j < nfeat; j++ {
				kRef, okK := u32()
				v, okV := u64()
				if !okK || !okV {
					return fail("truncated feature")
				}
				k, okS := str(kRef)
				if !okS {
					return fail("feature key out of range")
				}
				e.feats = append(e.feats, tune.KV{K: k, V: math.Float64frombits(v)})
			}
			// The writer emits features sorted; a hostile index might not.
			if !sort.SliceIsSorted(e.feats, func(a, b int) bool { return e.feats[a].K < e.feats[b].K }) {
				return fail("unsorted features")
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// scanSegmentRecords rebuilds index entries by walking the CRC-framed
// records region — the recovery path when the index block is unusable. It
// keeps every decodable record up to the first corruption and never panics.
func scanSegmentRecords(data []byte) []segEntry {
	var entries []segEntry
	off := int64(len(segMagic))
	for off+8 <= int64(len(data)) {
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		start := off + 8
		if length == 0 || start+int64(length) > int64(len(data)) {
			break
		}
		payload := data[start : start+int64(length)]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		var st Stored
		if err := json.Unmarshal(payload, &st); err != nil {
			break
		}
		e := entryFor(st)
		e.off = start
		e.length = length
		entries = append(entries, e)
		off = start + int64(length)
	}
	return entries
}

// openSegment opens one immutable segment, reading only its footer and
// index block in the healthy case.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	sg := &segment{path: path, f: f}
	entries, err := readSegmentIndex(f, fi.Size())
	if err == nil {
		sg.entries = entries
		sg.sorted = entriesSorted(entries)
		return sg, nil
	}
	if _, unusable := err.(errSegIndex); !unusable {
		f.Close()
		return nil, err
	}
	// Index unusable: recover every committed record from the data region.
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		f.Close()
		return nil, fmt.Errorf("store: recovering segment %s: %w", path, rerr)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
		f.Close()
		return nil, fmt.Errorf("store: %s is not a segment file", path)
	}
	sg.entries = scanSegmentRecords(data)
	sg.sorted = entriesSorted(sg.entries)
	return sg, nil
}

// readSegmentIndex reads and validates the footer and index block.
func readSegmentIndex(f *os.File, size int64) ([]segEntry, error) {
	var hdr [8]byte
	if size < int64(len(segMagic))+segFooterLen {
		return nil, errSegIndex{"file too short"}
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("store: reading segment header: %w", err)
	}
	if string(hdr[:]) != string(segMagic) {
		return nil, errSegIndex{"bad header magic"}
	}
	var footer [segFooterLen]byte
	if _, err := f.ReadAt(footer[:], size-segFooterLen); err != nil {
		return nil, fmt.Errorf("store: reading segment footer: %w", err)
	}
	if string(footer[16:]) != string(segIdxMagic) {
		return nil, errSegIndex{"bad footer magic"}
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	indexLen := int64(binary.LittleEndian.Uint32(footer[8:]))
	indexCRC := binary.LittleEndian.Uint32(footer[12:])
	if indexOff < int64(len(segMagic)) || indexLen < 0 || indexOff+indexLen != size-segFooterLen {
		return nil, errSegIndex{"index bounds"}
	}
	buf := make([]byte, indexLen)
	if _, err := f.ReadAt(buf, indexOff); err != nil {
		return nil, fmt.Errorf("store: reading segment index: %w", err)
	}
	if crc32.ChecksumIEEE(buf) != indexCRC {
		return nil, errSegIndex{"index checksum"}
	}
	return decodeSegmentIndex(buf, size)
}
