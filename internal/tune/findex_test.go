package tune

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// The indexed lookup path must be indistinguishable from the linear-scan
// oracle: same ranks, same nearest, bit for bit, on any corpus (the store's
// oracle tests add warm-start configurations, which read record payloads).
// These tests generate adversarial corpora — quantized feature values so
// exact distance ties are common, sparse maps so keys go missing, queries
// with keys no session carries and keys that exceed every stored magnitude —
// and compare every indexed result against the retained free functions.

// featurePool is a small key/value pool: few keys and quantized values make
// shared keys, missing keys, and exact distance ties all frequent.
var featureKeys = []string{"rows", "ratio", "skew", "mem", "io", "cpu"}
var featureVals = []float64{0, 0.5, 1, 2, -1, 4}

func randFeatures(rng *rand.Rand) map[string]float64 {
	m := map[string]float64{}
	for _, k := range featureKeys {
		if rng.Float64() < 0.5 {
			m[k] = featureVals[rng.Intn(len(featureVals))]
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// randQuery sometimes reaches outside the corpus: unseen keys (query-only
// constant terms) and values larger than any stored magnitude (which force
// the scan fallback).
func randQuery(rng *rand.Rand) map[string]float64 {
	m := randFeatures(rng)
	if rng.Float64() < 0.3 {
		if m == nil {
			m = map[string]float64{}
		}
		m["novel"] = featureVals[1+rng.Intn(len(featureVals)-1)]
	}
	if rng.Float64() < 0.2 {
		if m == nil {
			m = map[string]float64{}
		}
		m[featureKeys[rng.Intn(len(featureKeys))]] = 100
	}
	return m
}

// shapedKeys are two systems' whole key lists. Sessions drawn from them share
// a key list with half the corpus, so an index over them evaluates same-shape
// pairs by the aligned kernel and mixed pairs by the merge, inside one tree.
var shapedKeys = [][]string{
	{"cpu", "io", "mem", "ratio", "rows", "skew"},
	{"executors", "io", "rows", "shuffle"},
}

func randShapedFeatures(rng *rand.Rand) map[string]float64 {
	m := map[string]float64{}
	for _, k := range shapedKeys[rng.Intn(len(shapedKeys))] {
		m[k] = featureVals[rng.Intn(len(featureVals))]
	}
	return m
}

// featLists sorts each feature map into the KV list the index takes.
func featLists(feats []map[string]float64) [][]KV {
	pts := make([][]KV, len(feats))
	for i, m := range feats {
		pts[i] = FeatureList(m)
	}
	return pts
}

func fiSpace() *Space { return NewSpace(Float("x", 0, 1, 0.5), Float("y", 0, 1, 0.5)) }

// randSession emits records with compatible, incompatible, and differently-
// sized ParamNames, plus failed / partial-fidelity / wrong-dimension trials,
// so WarmConfigs equality exercises every skip rule.
func randSession(rng *rand.Rand, system string) SessionRecord {
	rec := SessionRecord{System: system, Workload: "w", Features: randFeatures(rng)}
	switch rng.Intn(4) {
	case 0, 1:
		rec.ParamNames = []string{"x", "y"}
	case 2:
		rec.ParamNames = []string{"x", "z"} // same arity, wrong names
	case 3:
		rec.ParamNames = []string{"x"}
	}
	for t := rng.Intn(4); t > 0; t-- {
		tr := TrialRecord{
			Vector: []float64{rng.Float64(), rng.Float64()},
			Time:   float64(rng.Intn(5)), // quantized: time ties are common
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

// indexedRepo is a plain Repository beside a CorpusIndex fed the same
// sessions in the same order — what store.FileStore keeps over its live
// records, without the files.
type indexedRepo struct {
	Repository
	ci *CorpusIndex
}

func newIndexedRepo() *indexedRepo { return &indexedRepo{ci: NewCorpusIndex()} }

func (r *indexedRepo) Add(rec SessionRecord) {
	r.ci.AddKV(rec.System, FeatureList(rec.Features), len(r.Sessions))
	r.Repository.Add(rec)
}

// assertLookupsMatchOracle compares the index's walk for one (system, query)
// pair against the free-function oracle: the whole ranking, the nearest
// session, and each walked position naming the session the oracle ranked.
func assertLookupsMatchOracle(t *testing.T, repo *indexedRepo, system string, q map[string]float64) {
	t.Helper()
	var sessions []SessionRecord
	var poss []int
	for pos, s := range repo.Sessions {
		if s.System == system {
			sessions, poss = append(sessions, s), append(poss, pos)
		}
	}
	wantRank := RankSessions(sessions, q)
	var gotRank []int
	repo.ci.Walk(system, q, func(pos, ord int) bool {
		if pos != poss[ord] {
			t.Fatalf("Walk(%s, %v): the system's session %d is at position %d, walked %d", system, q, ord, poss[ord], pos)
		}
		gotRank = append(gotRank, ord)
		return true
	})
	if !reflect.DeepEqual(gotRank, wantRank) {
		t.Fatalf("RankSessions(%s, %v):\nindexed %v\noracle  %v", system, q, gotRank, wantRank)
	}
	got := -1
	repo.ci.Walk(system, q, func(_, ord int) bool { got = ord; return false })
	if want := NearestSession(sessions, q); got != want {
		t.Fatalf("NearestSession(%s, %v): indexed %d oracle %d", system, q, got, want)
	}
	if got := repo.ci.Len(system); got != len(sessions) {
		t.Fatalf("Len(%s) = %d, want %d", system, got, len(sessions))
	}
}

func TestIndexedLookupsMatchOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		repo := newIndexedRepo()
		n := rng.Intn(120)
		for i := 0; i < n; i++ {
			sys := "dbms"
			if rng.Float64() < 0.3 {
				sys = "spark"
			}
			rec := randSession(rng, sys)
			if trial%2 == 1 {
				// Mixed-shape corpus: two whole key lists interleaved.
				rec.Features = randShapedFeatures(rng)
			}
			repo.Add(rec)
		}
		for q := 0; q < 8; q++ {
			assertLookupsMatchOracle(t, repo, "dbms", randQuery(rng))
			assertLookupsMatchOracle(t, repo, "spark", randQuery(rng))
			assertLookupsMatchOracle(t, repo, "dbms", randShapedFeatures(rng))
		}
	}
}

func TestIndexedLookupsMatchOracleRandomizedRace3(t *testing.T) {
	TestIndexedLookupsMatchOracleRandomized(t)
}

// TestIndexedLookupsAcrossTailStates drives the prefix-tree + linear-tail
// lifecycle explicitly: tree-only, tail-only, mixed, post-rebuild, and a
// tail addition that raises a frozen scale (forcing the stale-rebuild path).
func TestIndexedLookupsAcrossTailStates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	repo := newIndexedRepo()
	q := map[string]float64{"rows": 1, "ratio": 0.5}
	// Tail-only: lookups before the corpus outgrows a single build.
	for i := 0; i < 5; i++ {
		repo.Add(randSession(rng, "dbms"))
		assertLookupsMatchOracle(t, repo, "dbms", q)
	}
	// Grow well past the rebuild threshold with interleaved lookups, so the
	// index serves from every mix of tree prefix and linear tail.
	for i := 0; i < 200; i++ {
		repo.Add(randSession(rng, "dbms"))
		if i%17 == 0 {
			assertLookupsMatchOracle(t, repo, "dbms", randQuery(rng))
		}
	}
	assertLookupsMatchOracle(t, repo, "dbms", q)
	// A tail session whose feature magnitude exceeds the frozen build scale
	// invalidates the tree's geometry; the next lookup must rebuild.
	big := randSession(rng, "dbms")
	big.Features = map[string]float64{"rows": 1e6}
	repo.Add(big)
	assertLookupsMatchOracle(t, repo, "dbms", q)
	assertLookupsMatchOracle(t, repo, "dbms", map[string]float64{"rows": 1e7})
}

func TestIndexedLookupsAcrossTailStatesRace3(t *testing.T) { TestIndexedLookupsAcrossTailStates(t) }

// TestIndexedLookupsDegenerateValues pins the scan-fallback equality on
// inputs the tree cannot bound: NaN and Inf feature values in the corpus
// and in the query.
func TestIndexedLookupsDegenerateValues(t *testing.T) {
	repo := newIndexedRepo()
	feats := []map[string]float64{
		{"rows": 1},
		{"rows": math.NaN(), "ratio": 2},
		{"ratio": math.Inf(1)},
		{"rows": 2, "ratio": 1},
		nil,
	}
	for _, f := range feats {
		repo.Add(SessionRecord{System: "dbms", Workload: "w", ParamNames: []string{"x", "y"}, Features: f})
	}
	queries := []map[string]float64{
		{"rows": 1.5},
		{"rows": math.NaN()},
		{"ratio": math.Inf(-1)},
		nil,
	}
	for _, q := range queries {
		assertLookupsMatchOracle(t, repo, "dbms", q)
	}
}

func TestIndexedLookupsDegenerateValuesRace3(t *testing.T) { TestIndexedLookupsDegenerateValues(t) }

// TestIndexedLookupsEmptyAndMissing covers the degenerate shapes warm start
// meets in practice: empty repository, unknown system, sessions with no
// features at all, and an empty query map.
func TestIndexedLookupsEmptyAndMissing(t *testing.T) {
	repo := newIndexedRepo()
	assertLookupsMatchOracle(t, repo, "dbms", map[string]float64{"rows": 1})
	repo.Add(SessionRecord{System: "dbms", Workload: "w"})
	repo.Add(SessionRecord{System: "dbms", Workload: "w", Features: map[string]float64{"rows": 0}})
	assertLookupsMatchOracle(t, repo, "dbms", nil)
	assertLookupsMatchOracle(t, repo, "dbms", map[string]float64{"rows": 0})
	assertLookupsMatchOracle(t, repo, "nosuch", map[string]float64{"rows": 1})

	var nilRepo *Repository
	if nilRepo.WarmConfigs("dbms", nil, fiSpace(), 3) != nil {
		t.Fatal("nil repository must warm-start to nothing")
	}
	if got, err := nilRepo.ForSystem("dbms"); got != nil || err != nil {
		t.Fatal("nil repository must hold nothing")
	}
}

func TestIndexedLookupsEmptyAndMissingRace3(t *testing.T) { TestIndexedLookupsEmptyAndMissing(t) }

// TestFeatureIndexStandalone pins the FeatureIndex primitive itself:
// rank order against a direct oracle computation, lazy Walk cutoff, and
// deterministic construction.
func TestFeatureIndexStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		feats := make([]map[string]float64, rng.Intn(300))
		sessions := make([]SessionRecord, len(feats))
		for i := range feats {
			feats[i] = randFeatures(rng)
			sessions[i] = SessionRecord{Features: feats[i]}
		}
		ix := NewFeatureIndexKV(nil)
		_ = ix // exercise the empty constructor path
		ix = NewFeatureIndexKV(featLists(feats))
		if len(ix.pts) != len(feats) {
			t.Fatalf("indexed %d points, want %d", len(ix.pts), len(feats))
		}
		for qn := 0; qn < 6; qn++ {
			q := randQuery(rng)
			want := RankSessions(sessions, q)
			var got []int
			ix.Walk(q, func(i int, _ float64) bool { got = append(got, i); return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Walk(%v):\nindexed %v\noracle  %v", q, got, want)
			}
		}
	}
}

// TestFeatureIndexWalkStopsEarly verifies Walk honors its cutoff and yields
// ascending distances with index tie-breaks on the fast path.
func TestFeatureIndexWalkStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	feats := make([]map[string]float64, 500)
	for i := range feats {
		feats[i] = randFeatures(rng)
	}
	ix := NewFeatureIndexKV(featLists(feats))
	q := map[string]float64{"rows": 1, "mem": 2}
	var seen int
	lastD, lastI := math.Inf(-1), -1
	ix.Walk(q, func(i int, d2 float64) bool {
		if d2 < lastD || (d2 == lastD && i < lastI) {
			t.Fatalf("walk order regressed: (%g,%d) after (%g,%d)", d2, i, lastD, lastI)
		}
		lastD, lastI = d2, i
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("walk yielded %d points, want 10", seen)
	}
}

// TestFeatureIndexKernelIsTheFormula pins the aligned kernel to the string
// merge it stands in for: over corpora with few key lists (so same-shape
// pairs are common), a zero-scale key, and values up to ±1e300, every
// distance the index evaluates by shape equals mergeDist2's bit for bit —
// between stored points, and against queries with missing keys, query-only
// keys and scale-raising values.
func TestFeatureIndexKernelIsTheFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lists := [][]string{
		{"a", "b", "c", "zero"},
		{"a", "c", "zero"},
		{"b", "d"},
		{},
	}
	vals := []float64{0, 0.5, -1, 3, 1e-300, -1e300, 1e300, 7.25}
	point := func(keys []string) []KV {
		p := make([]KV, len(keys))
		for k, key := range keys {
			p[k] = KV{K: key, V: vals[rng.Intn(len(vals))]}
			if key == "zero" {
				p[k].V = 0
			}
		}
		return p
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: aligned %x (%g), merge %x (%g)", what, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
	var alignedPairs, alignedQueries int
	for trial := 0; trial < 30; trial++ {
		pts := make([][]KV, 1+rng.Intn(60))
		for i := range pts {
			pts[i] = point(lists[rng.Intn(len(lists))])
		}
		ix := NewFeatureIndexKV(pts)
		for n := 0; n < 200; n++ {
			a, b := int32(rng.Intn(len(pts))), int32(rng.Intn(len(pts)))
			if ix.shapeOf[a] == ix.shapeOf[b] {
				alignedPairs++
			}
			same("buildDist2", ix.buildDist2(a, b), ix.mergeDist2(pts[a], pts[b], nil))
		}
		for n := 0; n < 40; n++ {
			q := map[string]float64{}
			for _, kv := range point(lists[rng.Intn(len(lists))]) {
				q[kv.K] = kv.V
			}
			switch rng.Intn(4) {
			case 0:
				q["novel"] = 2 // query-only key
			case 1:
				q["zero"] = -4 // raises a zero scale
			case 2:
				q["a"] = 2e300 // raises a corpus scale
			}
			fq := ix.prepare(q)
			for p := range pts {
				if ix.shapeOf[p] == fq.shape {
					alignedQueries++
				}
				want := ix.mergeDist2(fq.q, pts[p], fq.override)
				same("refDist2At", ix.refDist2At(fq, int32(p)), want)
				same("refDist2", ix.refDist2(fq, pts[p]), want)
				same("queryBuildDist2", ix.queryBuildDist2(fq, int32(p)), ix.mergeDist2(fq.q, pts[p], nil))
			}
		}
	}
	if alignedPairs == 0 || alignedQueries == 0 {
		t.Fatalf("aligned kernel not exercised: %d stored pairs, %d query pairs", alignedPairs, alignedQueries)
	}
}

func TestFeatureIndexKernelIsTheFormulaRace3(t *testing.T) { TestFeatureIndexKernelIsTheFormula(t) }

// TestSelectNthMatchesSortSplit: selection gives the median split the full
// sort gave — the same element at n, the same set before it (so the same rIn)
// and after it — on random, all-equal, heavily duplicated and ±Inf distances.
func TestSelectNthMatchesSortSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// A slice, not a map: the generators share rng, so a failure reproduces
	// only if they run in one order.
	gens := []struct {
		name string
		gen  func() float64
	}{
		{"random", rng.Float64},
		{"all-equal", func() float64 { return 1.5 }},
		{"duplicates", func() float64 { return float64(rng.Intn(4)) }},
		{"infinite", func() float64 { return []float64{math.Inf(1), math.Inf(-1), 0, 1}[rng.Intn(4)] }},
	}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for trial := 0; trial < 200; trial++ {
			ds := make([]vpDist, 1+rng.Intn(400))
			for j, i := range rng.Perm(len(ds)) {
				ds[j] = vpDist{gen(), int32(i)}
			}
			n := len(ds) / 2
			if trial%4 == 0 {
				n = rng.Intn(len(ds))
			}
			want := slices.Clone(ds)
			slices.SortFunc(want, func(a, b vpDist) int {
				if a.less(b) {
					return -1
				}
				return 1
			})
			selectNth(ds, n)
			if ds[n] != want[n] {
				t.Fatalf("%s: ds[%d] = %v, sort puts %v there", name, n, ds[n], want[n])
			}
			for j, x := range ds {
				if (j < n && !x.less(ds[n])) || (j > n && !ds[n].less(x)) {
					t.Fatalf("%s: ds[%d] = %v on the wrong side of ds[%d] = %v", name, j, x, n, ds[n])
				}
			}
			if n > 0 {
				rIn := ds[0].d
				for _, x := range ds[:n] {
					rIn = math.Max(rIn, x.d)
				}
				if rIn != want[n-1].d {
					t.Fatalf("%s: rIn = %g, sort gives %g", name, rIn, want[n-1].d)
				}
			}
		}
	}
}

func TestSelectNthMatchesSortSplitRace3(t *testing.T) { TestSelectNthMatchesSortSplit(t) }

// TestFeatureIndexBuildSameTreeAtAnyGOMAXPROCS: node ids are preassigned and
// the split is deterministic, so builds that run halves concurrently and a
// serial build produce the same nodes (under -race, also: the concurrent
// halves share nothing they write).
func TestFeatureIndexBuildSameTreeAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(47))
	pts := make([][]KV, 5*vpParallelMin)
	for i := range pts {
		pts[i] = FeatureList(randShapedFeatures(rng))
		for k := range pts[i] {
			pts[i][k].V += rng.Float64()
		}
	}
	var want []vpNode
	for _, procs := range []int{1, 2, 2, 1} {
		runtime.GOMAXPROCS(procs)
		ix := NewFeatureIndexKV(pts)
		if int(vpNodes(len(pts))) != len(ix.nodes) {
			t.Fatalf("vpNodes(%d) = %d, built %d", len(pts), vpNodes(len(pts)), len(ix.nodes))
		}
		if want == nil {
			want = ix.nodes
		} else if !reflect.DeepEqual(ix.nodes, want) {
			t.Fatalf("GOMAXPROCS=%d built a different tree", procs)
		}
	}
}

func TestFeatureIndexBuildSameTreeAtAnyGOMAXPROCSRace3(t *testing.T) {
	TestFeatureIndexBuildSameTreeAtAnyGOMAXPROCS(t)
}
