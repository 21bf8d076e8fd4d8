package store

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tune"
)

// The store's indexed lookups (WarmConfigs, Nearest, the walk under them) must be
// indistinguishable from linearly scanning the materialized corpus with the
// retained tune free functions — across every physical layout the store
// passes through: tail-only, mixed segments + tail, reopened from disk,
// and fully compacted, with deletes punched into all of them.

var oracleKeys = []string{"rows", "ratio", "skew", "mem", "io"}
var oracleVals = []float64{0, 0.5, 1, 2, -1, 4}

func oracleSpace() *tune.Space {
	return tune.NewSpace(tune.Float("a", 0, 1, 0.5), tune.Float("b", 0, 1, 0.5))
}

func randOracleFeatures(rng *rand.Rand) map[string]float64 {
	m := map[string]float64{}
	for _, k := range oracleKeys {
		if rng.Float64() < 0.5 {
			m[k] = oracleVals[rng.Intn(len(oracleVals))]
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

func randOracleQuery(rng *rand.Rand) map[string]float64 {
	m := randOracleFeatures(rng)
	if rng.Float64() < 0.3 {
		if m == nil {
			m = map[string]float64{}
		}
		m["novel"] = oracleVals[1+rng.Intn(len(oracleVals)-1)]
	}
	if rng.Float64() < 0.2 {
		if m == nil {
			m = map[string]float64{}
		}
		m[oracleKeys[rng.Intn(len(oracleKeys))]] = 100
	}
	return m
}

// randOracleRecord mixes transferable and untransferable sessions: matching,
// wrong-name, and wrong-arity ParamNames, plus failed / partial-fidelity /
// wrong-dimension trials, so warm-start equality exercises every skip rule.
func randOracleRecord(rng *rand.Rand, system string) tune.SessionRecord {
	rec := tune.SessionRecord{System: system, Workload: "w", Features: randOracleFeatures(rng)}
	switch rng.Intn(4) {
	case 0, 1:
		rec.ParamNames = []string{"a", "b"}
	case 2:
		rec.ParamNames = []string{"a", "z"}
	case 3:
		rec.ParamNames = []string{"a"}
	}
	for t := rng.Intn(4); t > 0; t-- {
		tr := tune.TrialRecord{
			Vector: []float64{rng.Float64(), rng.Float64()},
			Time:   float64(rng.Intn(5)),
		}
		switch rng.Intn(5) {
		case 0:
			tr.Failed = true
		case 1:
			tr.Fidelity = 0.5
		case 2:
			tr.Vector = tr.Vector[:1]
		}
		rec.Trials = append(rec.Trials, tr)
	}
	return rec
}

// rankIDs walks the store's feature index for up to limit live ids of the
// named system, nearest first (every one of them when limit <= 0).
func rankIDs(s *FileStore, system string, features map[string]float64, limit int) []int64 {
	var out []int64
	s.lookupWalk(system, features, func(pos, _ int) bool {
		out = append(out, s.refs[pos].id)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// assertStoreMatchesOracle compares every indexed store lookup against the
// linear-scan oracle over the materialized corpus.
func assertStoreMatchesOracle(t *testing.T, s *FileStore, system string, q map[string]float64) {
	t.Helper()
	all := sessions(t, s)
	var recs []tune.SessionRecord
	var ids []int64
	for _, st := range all {
		if st.Record.System == system {
			recs = append(recs, st.Record)
			ids = append(ids, st.ID)
		}
	}
	rank := tune.RankSessions(recs, q)
	wantIDs := make([]int64, len(rank))
	for i, at := range rank {
		wantIDs[i] = ids[at]
	}
	gotIDs := rankIDs(s, system, q, 0)
	if len(gotIDs) == 0 {
		gotIDs = nil
	}
	if len(wantIDs) == 0 {
		wantIDs = nil
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("rankIDs(%s, %v):\nindexed %v\noracle  %v", system, q, gotIDs, wantIDs)
	}
	if limit := 3; len(wantIDs) > limit {
		if got := rankIDs(s, system, q, limit); !reflect.DeepEqual(got, wantIDs[:limit]) {
			t.Fatalf("rankIDs(%s, limit=%d): indexed %v oracle %v", system, limit, got, wantIDs[:limit])
		}
	}
	sum, found := s.Nearest(system, q)
	if found != (len(wantIDs) > 0) {
		t.Fatalf("Nearest(%s, %v): found=%v, oracle has %d candidates", system, q, found, len(wantIDs))
	}
	if found {
		if sum.ID != wantIDs[0] {
			t.Fatalf("Nearest(%s, %v): indexed id %d, oracle id %d", system, q, sum.ID, wantIDs[0])
		}
		rec := recs[rank[0]]
		want := Summary{ID: wantIDs[0], System: rec.System, Workload: rec.Workload, Trials: len(rec.Trials)}
		if at := rec.BestTrial(); at >= 0 {
			want.BestTime = rec.Trials[at].Time
		}
		if !reflect.DeepEqual(sum, want) {
			t.Fatalf("Nearest(%s, %v): summary %+v, oracle %+v", system, q, sum, want)
		}
	}
	// The per-system read is the materialized corpus filtered by system.
	forSystem, err := s.ForSystem(system)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forSystem, recs) {
		t.Fatalf("ForSystem(%s): %d records, filtering Sessions() gives %d:\n got %+v\nwant %+v", system, len(forSystem), len(recs), forSystem, recs)
	}
	repo := &tune.Repository{Sessions: recs}
	space := oracleSpace()
	for _, k := range []int{0, 1, 3} {
		got := s.WarmConfigs(system, q, space, k)
		want := tune.WarmConfigs(repo, system, q, space, k)
		if len(got) != len(want) {
			t.Fatalf("WarmConfigs(%s, k=%d): indexed %d cfgs, oracle %d", system, k, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("WarmConfigs(%s, k=%d)[%d]: indexed %s oracle %s", system, k, i, got[i], want[i])
			}
		}
	}
}

// TestStoreLookupsMatchOracle drives the store through segment folds,
// deletes, reopen, and full compaction, comparing the indexed lookups to
// the linear scan at every stage.
func TestStoreLookupsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	s := open(t, dir)
	s.CompactEvery = 16 // several segment folds across the appends below
	var live []int64
	for i := 0; i < 140; i++ {
		sys := "dbms"
		if rng.Float64() < 0.3 {
			sys = "spark"
		}
		id, err := s.Append(randOracleRecord(rng, sys))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		if rng.Float64() < 0.08 && len(live) > 1 {
			at := rng.Intn(len(live))
			if err := s.Delete(live[at]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:at], live[at+1:]...)
		}
		if i%23 == 0 {
			assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng))
			assertStoreMatchesOracle(t, s, "spark", randOracleQuery(rng))
		}
	}
	for q := 0; q < 6; q++ {
		assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng))
		assertStoreMatchesOracle(t, s, "spark", randOracleQuery(rng))
	}

	// Reopen: lookups over segments + replayed tail straight from disk.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if got := int64(len(live)); int64(s2.Len()) != got {
		t.Fatalf("reopened store has %d live records, want %d", s2.Len(), got)
	}
	for q := 0; q < 6; q++ {
		assertStoreMatchesOracle(t, s2, "dbms", randOracleQuery(rng))
		assertStoreMatchesOracle(t, s2, "spark", randOracleQuery(rng))
	}

	// Full compaction rewrites everything into one segment; equality holds.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		assertStoreMatchesOracle(t, s2, "dbms", randOracleQuery(rng))
		assertStoreMatchesOracle(t, s2, "spark", randOracleQuery(rng))
	}
}

func TestStoreLookupsMatchOracleRace3(t *testing.T) { TestStoreLookupsMatchOracle(t) }

// TestStoreLookupsTailOnly pins the pure-WAL state (no segment ever
// written): the smallest deployment shape and the one the v1 store
// effectively always ran in between compactions.
func TestStoreLookupsTailOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := open(t, t.TempDir())
	s.CompactEvery = 0 // never fold
	assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng))
	for i := 0; i < 30; i++ {
		if _, err := s.Append(randOracleRecord(rng, "dbms")); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng))
		}
	}
	assertStoreMatchesOracle(t, s, "dbms", nil)
	assertStoreMatchesOracle(t, s, "nosuch", map[string]float64{"rows": 1})
}

// TestStoreBulkAppendMatchesOracle: the bulk ingest path (segment written
// directly, no WAL) must be indistinguishable from per-record appends to
// every lookup — including when bulk batches land on an already-built index
// and interleave with ordinary appends and deletes.
func TestStoreBulkAppendMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	s := open(t, dir)
	s.CompactEvery = 16
	mkBatch := func(n int) []tune.SessionRecord {
		out := make([]tune.SessionRecord, n)
		for i := range out {
			sys := "dbms"
			if rng.Float64() < 0.3 {
				sys = "spark"
			}
			out[i] = randOracleRecord(rng, sys)
		}
		return out
	}
	first, err := s.BulkAppend(mkBatch(25))
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first bulk id = %d, want 1", first)
	}
	assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng))
	// Interleave: tail appends, a delete reaching into the bulk segment,
	// then another bulk batch on top of the now-built index.
	for i := 0; i < 10; i++ {
		if _, err := s.Append(randOracleRecord(rng, "dbms")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(first + 3); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng)) // rebuilds index
	if _, err := s.BulkAppend(mkBatch(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BulkAppend(nil); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		assertStoreMatchesOracle(t, s, "dbms", randOracleQuery(rng))
		assertStoreMatchesOracle(t, s, "spark", randOracleQuery(rng))
	}
	if s.Len() != 54 {
		t.Fatalf("store has %d live sessions, want 54", s.Len())
	}
	// The bulk batches are committed: a reopen sees them without the WAL.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if s2.Len() != 54 {
		t.Fatalf("reopened store has %d live sessions, want 54", s2.Len())
	}
	for q := 0; q < 4; q++ {
		assertStoreMatchesOracle(t, s2, "dbms", randOracleQuery(rng))
	}
}

func TestStoreBulkAppendMatchesOracleRace3(t *testing.T) { TestStoreBulkAppendMatchesOracle(t) }

// TestStoreLookupsSeeIncrementalAppends: an already-built index must absorb
// appends that arrive after it (the incremental AddKV path) without going
// stale — including appends that raise a frozen feature scale.
func TestStoreLookupsSeeIncrementalAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := open(t, t.TempDir())
	s.CompactEvery = 8
	for i := 0; i < 20; i++ {
		if _, err := s.Append(randOracleRecord(rng, "dbms")); err != nil {
			t.Fatal(err)
		}
	}
	q := map[string]float64{"rows": 1, "ratio": 0.5}
	assertStoreMatchesOracle(t, s, "dbms", q) // builds the index
	for i := 0; i < 30; i++ {
		if _, err := s.Append(randOracleRecord(rng, "dbms")); err != nil {
			t.Fatal(err)
		}
		assertStoreMatchesOracle(t, s, "dbms", q)
	}
	big := randOracleRecord(rng, "dbms")
	big.Features = map[string]float64{"rows": 1e6}
	if _, err := s.Append(big); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesOracle(t, s, "dbms", q)
	assertStoreMatchesOracle(t, s, "dbms", map[string]float64{"rows": 1e7})
}
