package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/tune"
)

// The store's on-disk bytes, pinned. A fixed corpus goes through the real
// write paths — BulkAppend (one segment), Append and Delete (the WAL) and
// four SaveCheckpoint calls (a checkpoint log's rewrite and appends) — and
// each file's SHA-256 must match. A change to how the store encodes what it
// writes shows here first; one that means to change the format updates these
// constants and says why.

const (
	goldenWALSHA     = "54ee4e48bdbe674952b6978898769c1c5e93bdb00f37bb50623221db241ae5e4"
	goldenSegmentSHA = "cf5e9ff1c3e83545f130af798f73518c5427a7ee3e42b61723fde185e115bfa1"
	goldenCkptSHA    = "481b7f921d2e53a0d6eebf8846fe82924eb09d0fe9a70f7e633a87a3a4c4aee1"
)

// goldenMetrics returns n metric values named m00, m01, … whose magnitudes
// run from 1e-57 to 1e57, so both of encoding/json's float forms appear.
func goldenMetrics(n int) map[string]float64 {
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("m%02d", i)] = float64(i+1) * math.Pow(10, float64(3*i-57)) / 7
	}
	return m
}

// goldenCorpus is every record shape the encoders distinguish: failed and
// partial-fidelity trials, features, no metrics and 40 metrics, nil and empty
// ParamNames, Vector and Trials, and strings that need escaping.
func goldenCorpus() []tune.SessionRecord {
	return []tune.SessionRecord{
		{
			System: "dbms", Workload: "tpch",
			ParamNames: []string{"buffer_pool_mb", "io_threads"},
			Features:   map[string]float64{"data_gb": 10, "read_ratio": 0.7, "tiny": 1e-7},
			Trials: []tune.TrialRecord{
				{Vector: []float64{0.5, 0.25}, Time: 1293.1465420660884, Metrics: goldenMetrics(40)},
				{Vector: []float64{1e-9, 3e21}, Time: 4500, Failed: true},
				{Vector: []float64{0, -0.125}, Time: 88.5, Metrics: goldenMetrics(22), Fidelity: 0.25},
			},
		},
		{System: "spark", Workload: "pagerank"},
		{
			System: "spark", Workload: "pagerank",
			ParamNames: []string{}, Features: map[string]float64{},
			Trials: []tune.TrialRecord{},
		},
		{
			System: "spark", Workload: "wordcount",
			ParamNames: []string{"executors"},
			Trials: []tune.TrialRecord{
				{Time: 12},
				{Vector: []float64{}, Time: 0, Metrics: map[string]float64{}},
				{Vector: []float64{0.75}, Time: 1e-7, Metrics: map[string]float64{"gc_ms": 3}},
			},
		},
		{
			System: "db<&>", Workload: "tpch-ü\u2028\"q\"\\",
			ParamNames: []string{"a<b", "été", "tab\there"},
			Features:   map[string]float64{"über": 2, "<k>": -1.5e-300},
			Trials: []tune.TrialRecord{
				{Vector: []float64{0.1, 0.2, 0.3}, Time: 7, Metrics: map[string]float64{"a&b": 1, "ä": 2e22}},
			},
		},
	}
}

// goldenReplay is a checkpointed history of the same shapes, as results.
func goldenReplay() []tune.ReplayTrial {
	return []tune.ReplayTrial{
		{Vector: []float64{0.5, 0.25}, Result: tune.Result{Time: 1293.1465420660884, Cost: 0.1608979123150373, Metrics: goldenMetrics(22)}},
		{Vector: []float64{0.9, 1}, Result: tune.Result{Time: 4500, Failed: true, FailReason: "out of memory <oom> & échec"}},
		{Vector: []float64{0, 1e-8}, Result: tune.Result{Time: 88.5, Metrics: goldenMetrics(40), Fidelity: 1.0 / 3}},
		{Result: tune.Result{Time: 3e21}},
		{Vector: []float64{}, Result: tune.Result{Time: 1, Cost: 2, Metrics: map[string]float64{}}},
	}
}

// writeGoldenStore writes the corpus into a fresh store in dir and returns
// the paths of its WAL, its one segment and its one checkpoint log.
func writeGoldenStore(t *testing.T, dir string) (wal, seg, ckpt string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	corpus := goldenCorpus()
	if _, err := s.BulkAppend(corpus); err != nil {
		t.Fatal(err)
	}
	for _, rec := range corpus {
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(int64(len(corpus) + 1)); err != nil {
		t.Fatal(err)
	}
	replay := goldenReplay()
	cp := SessionCheckpoint{
		SID:       "g1",
		Spec:      json.RawMessage(`{"system": "dbms", "workload":"tpch<1>", "budget":{"trials":30}}`),
		UpdatedAt: time.Date(2024, 3, 1, 12, 30, 45, 123456789, time.UTC),
	}
	// The admission save (no trials: a null list), two appends, and an
	// append with nothing new (an empty list).
	for _, n := range []int{-1, 2, 5, 5} {
		at := cp
		if n >= 0 {
			at.Replay = tune.Replay{Trials: replay[:n], RunsReserved: int64(3 * n)}
			at.Trials = n
		}
		if err := s.SaveCheckpoint(at); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment file, got %v (%v)", segs, err)
	}
	return filepath.Join(dir, walFile), segs[0], filepath.Join(dir, checkpointDir, "g1"+ckptLogExt)
}

// TestStoreBytesGolden pins the bytes of a WAL, a segment and a checkpoint
// log written from goldenCorpus and goldenReplay.
func TestStoreBytesGolden(t *testing.T) {
	wal, seg, ckpt := writeGoldenStore(t, t.TempDir())
	for _, c := range []struct{ name, path, want string }{
		{"WAL", wal, goldenWALSHA},
		{"segment", seg, goldenSegmentSHA},
		{"checkpoint log", ckpt, goldenCkptSHA},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s bytes changed: SHA-256 %s, want %s\n%s", c.name, got, c.want, data)
		}
	}
}
