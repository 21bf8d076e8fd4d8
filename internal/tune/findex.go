package tune

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// This file is the feature-space index behind million-session nearest-workload
// lookup: a vantage-point tree over normalized workload feature vectors that
// returns results bit-identical to the linear-scan reference (RankSessions,
// NearestSession, WarmConfigs — retained as the oracle), while visiting
// O(log n) candidates per lookup on well-behaved corpora.
//
// Equivalence is the design constraint. The reference distance between a
// query q and a candidate c is
//
//	d²(q,c) = Σ_k ((q[k] − c[k]) / s[k])²   over sorted keys k, skipping s[k]=0
//
// where s[k] is the max-abs of feature k over the query AND every candidate.
// Two properties make an index possible without changing a single bit of any
// result:
//
//  1. Keys absent from both q and c contribute exactly +0.0 to the IEEE sum,
//     so the accumulation over the global sorted key union equals the
//     accumulation over sorted(keys(q) ∪ keys(c)) — the index evaluates every
//     candidate it visits with the reference formula itself (same operands,
//     same order, same float result).
//  2. The per-key scale is max(buildScale[k], |q[k]|). While every query key
//     stays within the corpus max (the common case once the corpus has seen a
//     few sessions), the query metric IS the build metric and triangle-
//     inequality pruning is sound; query-only keys contribute an exactly-
//     representable constant per candidate and tighten into the bound. Any
//     query outside the frozen scale falls back to the linear scan — slower,
//     never different.
//
// Ties break exactly as the oracle's stable sort does: equal distances order
// by insertion position. The best-first traversal emits (d², index) in
// ascending lexicographic order, which is precisely that stable order.
//
// Property 1 also pays for the kernel. When q and c carry the same key list —
// the rule within one system — the accumulation over sorted(keys(q) ∪ keys(c))
// meets both operands at every key, so a loop over aligned positions with the
// scales resolved once (alignedDist2) performs the same operations in the
// same order as the string merge (mergeDist2). The build groups points by key
// list, their "shape", so that test is one integer compare per pair; pairs of
// different shapes run the merge itself.

// KV is one workload feature as a (key, value) pair. Feature lists handed to
// the index must be sorted ascending by key.
type KV struct {
	K string
	V float64
}

// FeatureList converts a feature map into the KV list, sorted by key, that
// the index takes.
func FeatureList(m map[string]float64) []KV {
	if len(m) == 0 {
		return nil
	}
	out := make([]KV, 0, len(m))
	for k, v := range m {
		out = append(out, KV{k, v})
	}
	slices.SortFunc(out, func(a, b KV) int { return strings.Compare(a.K, b.K) })
	return out
}

// sameKeys reports whether two feature lists carry the same keys in the same
// order.
func sameKeys(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].K != b[k].K {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// vpLeafSize is the subtree size below which points are stored flat.
const vpLeafSize = 8

// vpNode is one vantage-point tree node in array encoding.
type vpNode struct {
	vp      int32   // vantage point (point index); unused for leaves
	rIn     float64 // max build-metric distance of the inside partition
	rOut    float64 // min build-metric distance of the outside partition
	inside  int32   // node id, -1 = none
	outside int32   // node id, -1 = none
	leafPts []int32 // leaf: point indices (nil for internal nodes)
}

// FeatureIndex is an immutable vantage-point tree over a fixed snapshot of
// feature vectors. Lookups return exactly what the linear-scan reference
// returns over the same snapshot, in the same order.
type FeatureIndex struct {
	pts   [][]KV
	scale map[string]float64 // frozen per-key max-abs over pts
	// The points of one system nearly all carry one key list. Each distinct
	// list is a shape: shapeOf names every point's, shapeScale holds scale
	// aligned to the shape's keys, and shapeID (keyed by shapeKey) finds a
	// query's. Two operands of one shape take alignedDist2; any other pair
	// takes mergeDist2, the specification.
	shapeOf    []int32
	shapeScale [][]float64
	shapeID    map[string]int32
	nodes      []vpNode
	root       int32
	// degenerate marks a corpus with non-finite feature values: pruning
	// bounds are meaningless there, so every query takes the scan path
	// (which replicates the oracle's behavior bit for bit, NaNs included).
	degenerate bool
}

// shapeKey appends an injective encoding of p's key list to buf.
func shapeKey(buf []byte, p []KV) []byte {
	for _, kv := range p {
		buf = binary.AppendUvarint(buf, uint64(len(kv.K)))
		buf = append(buf, kv.K...)
	}
	return buf
}

// NewFeatureIndexKV builds an index over pre-sorted KV feature lists. The
// caller must not mutate pts afterwards.
func NewFeatureIndexKV(pts [][]KV) *FeatureIndex {
	ix := &FeatureIndex{pts: pts, scale: map[string]float64{}, root: -1,
		shapeOf: make([]int32, len(pts)), shapeID: map[string]int32{}}
	// One pass assigns shapes and takes each shape's per-key max-abs in its
	// aligned slice; the maxima then fold into the per-key scale, and every
	// shape's slice is refilled from it.
	var first []int32 // per shape: the first point carrying it
	var buf []byte
	for i, p := range pts {
		var s int32
		if i > 0 && sameKeys(p, pts[i-1]) {
			s = ix.shapeOf[i-1]
		} else {
			buf = shapeKey(buf[:0], p)
			var ok bool
			if s, ok = ix.shapeID[string(buf)]; !ok {
				s = int32(len(first))
				ix.shapeID[string(buf)] = s
				first = append(first, int32(i))
				ix.shapeScale = append(ix.shapeScale, make([]float64, len(p)))
			}
		}
		ix.shapeOf[i] = s
		mx := ix.shapeScale[s]
		for k, kv := range p {
			if !finite(kv.V) {
				ix.degenerate = true
			}
			if a := math.Abs(kv.V); a > mx[k] {
				mx[k] = a
			}
		}
	}
	for s, i := range first {
		for k, kv := range pts[i] {
			if a := ix.shapeScale[s][k]; a > ix.scale[kv.K] {
				ix.scale[kv.K] = a
			}
		}
	}
	for s, i := range first {
		for k, kv := range pts[i] {
			ix.shapeScale[s][k] = ix.scale[kv.K]
		}
	}
	if ix.degenerate || len(pts) == 0 {
		return ix
	}
	idxs := make([]int32, len(pts))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	ix.nodes = make([]vpNode, vpNodes(len(pts)))
	ix.root = 0
	// One token per spare CPU: a subtree takes one to build its inside half
	// concurrently and builds it inline when none is free.
	b := vpBuild{ix: ix, spare: make(chan struct{}, runtime.GOMAXPROCS(0)-1)}
	b.subtree(0, idxs, make([]vpDist, len(pts)))
	b.wg.Wait()
	return ix
}

// vpNodes is how many nodes a subtree over n points has — a pure function of
// n, so every subtree's node ids are known before any of it is built.
func vpNodes(n int) int32 {
	if n <= vpLeafSize {
		return 1
	}
	h := (n - 1) / 2
	return 1 + vpNodes(h) + vpNodes(n-1-h)
}

// vpParallelMin is the subtree size from which the inside half may build on
// its own goroutine.
const vpParallelMin = 4096

// vpDist is a point and its build-metric distance to the vantage point of
// the subtree being split.
type vpDist struct {
	d float64
	i int32
}

// less is the strict (distance, index) order the median split is taken in.
func (a vpDist) less(b vpDist) bool { return a.d < b.d || (a.d == b.d && a.i < b.i) }

// selectNth partitions ds around its n-th element in less order: ds[n] ends
// up where a full sort would put it, everything before it is smaller and
// everything after it larger. Quickselect on the middle element; small ranges,
// and any range left after 2·log₂ len rounds, are sorted outright.
func selectNth(ds []vpDist, n int) {
	lo, hi := 0, len(ds)
	for limit := 2 * bits.Len(uint(len(ds))); ; limit-- {
		if hi-lo <= 12 || limit == 0 {
			slices.SortFunc(ds[lo:hi], func(a, b vpDist) int {
				return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.i, b.i))
			})
			return
		}
		m := ds[lo+(hi-lo)/2]
		i, j := lo, hi-1
		for i <= j {
			for ds[i].less(m) {
				i++
			}
			for m.less(ds[j]) {
				j--
			}
			if i <= j {
				ds[i], ds[j] = ds[j], ds[i]
				i++
				j--
			}
		}
		// ds[lo:j+1] ≤ pivot ≤ ds[i:hi], and anything between is the pivot.
		switch {
		case n <= j:
			hi = j + 1
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

// vpBuild is one tree construction in flight.
type vpBuild struct {
	ix    *FeatureIndex
	spare chan struct{}
	wg    sync.WaitGroup
}

// subtree builds node id over idxs, splitting idxs in place with ds as
// scratch of the same length. The vantage point is the first index; the rest
// split at the median of their (distance to it, index) order, found by
// selection. Which points land in which half, and so rIn and rOut, are what a
// full sort would give; the order inside a half, and with it the next
// vantage point, is selectNth's — deterministic, so the tree is a pure
// function of the point set at any GOMAXPROCS, though no observable result
// depends on its shape. The inside subtree takes ids from id+1 and the outside
// one follows it, so halves built concurrently write disjoint ranges of
// nodes, idxs and ds.
func (b *vpBuild) subtree(id int32, idxs []int32, ds []vpDist) {
	ix := b.ix
	if len(idxs) <= vpLeafSize {
		ix.nodes[id] = vpNode{leafPts: idxs, inside: -1, outside: -1}
		return
	}
	vp, rest, ds := idxs[0], idxs[1:], ds[1:]
	for j, i := range rest {
		ds[j] = vpDist{math.Sqrt(ix.buildDist2(vp, i)), i}
	}
	h := len(rest) / 2
	selectNth(ds, h)
	rIn := ds[0].d
	for j, x := range ds {
		rest[j] = x.i
		if j < h && x.d > rIn {
			rIn = x.d
		}
	}
	in, out := id+1, id+1+vpNodes(h)
	ix.nodes[id] = vpNode{vp: vp, rIn: rIn, rOut: ds[h].d, inside: in, outside: out}
	spare := b.spare
	if len(idxs) < vpParallelMin {
		spare = nil // never ready: a small subtree builds both halves inline
	}
	select {
	case spare <- struct{}{}:
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.subtree(in, rest[:h], ds[:h])
			<-spare
		}()
	default:
		b.subtree(in, rest[:h], ds[:h])
	}
	b.subtree(out, rest[h:], ds[h:])
}

// alignedDist2 is the reference accumulation for two lists of one key list,
// sc holding the scale of each key: the operands, their order and the IEEE
// result are mergeDist2's, which takes its both-sides branch at every key.
func alignedDist2(a, b []KV, sc []float64) float64 {
	var d float64
	b, sc = b[:len(a)], sc[:len(a)]
	for k := range a {
		if sc[k] == 0 {
			continue
		}
		dd := (a[k].V - b[k].V) / sc[k]
		d += dd * dd
	}
	return d
}

// mergeDist2 is the reference formula over sorted(keys(a) ∪ keys(b)): each
// key's scale is the frozen build scale unless override carries it.
func (ix *FeatureIndex) mergeDist2(a, b []KV, override map[string]float64) float64 {
	var d float64
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var k string
		var av, bv float64
		switch {
		case j >= len(b) || (i < len(a) && a[i].K < b[j].K):
			k, av = a[i].K, a[i].V
			i++
		case i >= len(a) || b[j].K < a[i].K:
			k, bv = b[j].K, b[j].V
			j++
		default:
			k, av, bv = a[i].K, a[i].V, b[j].V
			i++
			j++
		}
		sc := ix.scale[k]
		if o, ok := override[k]; ok {
			sc = o
		}
		if sc == 0 {
			continue
		}
		dd := (av - bv) / sc
		d += dd * dd
	}
	return d
}

// buildDist2 is the squared build-metric distance between two stored points:
// the reference formula under the frozen build scale.
func (ix *FeatureIndex) buildDist2(a, b int32) float64 {
	if s := ix.shapeOf[a]; s == ix.shapeOf[b] {
		return alignedDist2(ix.pts[a], ix.pts[b], ix.shapeScale[s])
	}
	return ix.mergeDist2(ix.pts[a], ix.pts[b], nil)
}

// fiQuery is one prepared lookup: the sorted query features with each key's
// reference scale, the shape that carries exactly the query's key list, the
// per-key scale overrides the query introduces, the exact constant the
// query-only keys add to every candidate's distance, and whether tree pruning
// is sound.
type fiQuery struct {
	q        []KV
	sc       []float64 // per query key: max(build scale, |q[k]|)
	shape    int32     // -1 when no indexed point has the query's key list
	override map[string]float64
	constC   float64
	fast     bool
}

// prepare classifies a query against the frozen build scale.
func (ix *FeatureIndex) prepare(features map[string]float64) *fiQuery {
	fq := &fiQuery{q: FeatureList(features), shape: -1, fast: !ix.degenerate}
	fq.sc = make([]float64, len(fq.q))
	for k, kv := range fq.q {
		if !finite(kv.V) {
			fq.fast = false
		}
		a := math.Abs(kv.V)
		bs := ix.scale[kv.K]
		fq.sc[k] = bs
		if a > bs {
			if fq.override == nil {
				fq.override = map[string]float64{}
			}
			fq.override[kv.K] = a
			fq.sc[k] = a
			if bs > 0 {
				// A corpus key whose scale the query raises: the query
				// metric differs from the build metric everywhere, so
				// pruning bounds built under the old scale are invalid.
				fq.fast = false
			} else {
				// A key no candidate carries: every candidate's term is
				// (q[k]/|q[k]|)² = exactly 1.0 — a constant that shifts all
				// distances equally and folds into the pruning bound.
				fq.constC++
			}
		}
	}
	if s, ok := ix.shapeID[string(shapeKey(make([]byte, 0, 128), fq.q))]; ok {
		fq.shape = s
	}
	return fq
}

// refDist2 evaluates the reference squared distance between the prepared
// query and candidate c — bit-identical to the oracle's accumulation.
func (ix *FeatureIndex) refDist2(fq *fiQuery, c []KV) float64 {
	if sameKeys(fq.q, c) {
		return alignedDist2(fq.q, c, fq.sc)
	}
	return ix.mergeDist2(fq.q, c, fq.override)
}

// refDist2At is refDist2 for indexed point p, its key list known by shape.
func (ix *FeatureIndex) refDist2At(fq *fiQuery, p int32) float64 {
	if ix.shapeOf[p] == fq.shape {
		return alignedDist2(fq.q, ix.pts[p], fq.sc)
	}
	return ix.mergeDist2(fq.q, ix.pts[p], fq.override)
}

// queryBuildDist2 is the squared build-metric distance between the query and
// indexed point p (the frozen scale alone, as buildDist2).
func (ix *FeatureIndex) queryBuildDist2(fq *fiQuery, p int32) float64 {
	if s := ix.shapeOf[p]; s == fq.shape {
		return alignedDist2(fq.q, ix.pts[p], ix.shapeScale[s])
	}
	return ix.mergeDist2(fq.q, ix.pts[p], nil)
}

// shrink turns a mathematically-true lower bound into a float-safe one: the
// triangle inequality holds in real arithmetic, so a relative-plus-absolute
// margin absorbs the rounding of the handful of additions behind each bound.
// Margins only weaken pruning; they can never exclude a true candidate.
func shrink(x float64) float64 {
	x = x*(1-1e-9) - 1e-12
	if x < 0 {
		return 0
	}
	return x
}

// fiItem is one frontier entry of the best-first traversal: either a tree
// node (key = lower bound on any reference d² inside it) or an evaluated
// point (key = its exact reference d²).
type fiItem struct {
	key  float64
	lb   float64 // nodes: build-metric lower bound, for child derivation
	node int32   // -1 for points
	pt   int32
}

func (x fiItem) less(y fiItem) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	xn, yn := x.node >= 0, y.node >= 0
	if xn != yn {
		// A node whose bound ties a point's exact distance may still hide an
		// equal-distance point with a smaller index: expand it first.
		return xn
	}
	if xn {
		return x.node < y.node
	}
	return x.pt < y.pt
}

// fiHeap is a binary min-heap of frontier entries in less order.
type fiHeap []fiItem

func (h *fiHeap) push(it fiItem) {
	s := append(*h, it)
	*h = s
	for j := len(s) - 1; j > 0; {
		p := (j - 1) / 2
		if !s[j].less(s[p]) {
			break
		}
		s[j], s[p] = s[p], s[j]
		j = p
	}
}

func (h *fiHeap) pop() fiItem {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for j := 0; ; {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].less(s[c]) {
			c++
		}
		if !s[c].less(s[j]) {
			break
		}
		s[j], s[c] = s[c], s[j]
		j = c
	}
	return top
}

// scan is the linear-scan path over pts (the indexed points, or a corpus
// that has outgrown them): the oracle verbatim — distances by the reference
// formula, order by its stable sort on `<` alone, under which a NaN ties with
// everything — so even adversarial inputs (NaN features, scale-raising
// queries) match bit for bit.
func (ix *FeatureIndex) scan(fq *fiQuery, pts [][]KV) (order []int, dist []float64) {
	dist = make([]float64, len(pts))
	order = make([]int, len(pts))
	for i, p := range pts {
		dist[i] = ix.refDist2(fq, p)
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case dist[a] < dist[b]:
			return -1
		case dist[a] > dist[b]:
			return 1
		}
		return 0
	})
	return order, dist
}

// fiIter yields point indices in ascending (reference d², index) order — the
// oracle's exact ranking — lazily, so prefix consumers (nearest, warm-start)
// touch O(log n) points.
type fiIter struct {
	ix *FeatureIndex
	fq *fiQuery
	h  fiHeap
	// scan-path state (nil order means the tree path is in use)
	order []int
	dist  []float64
	at    int
}

// iter starts a traversal for the prepared query.
func (ix *FeatureIndex) iter(fq *fiQuery) *fiIter {
	it := &fiIter{ix: ix, fq: fq}
	if !fq.fast || ix.root < 0 {
		it.order, it.dist = ix.scan(fq, ix.pts)
		return it
	}
	it.h = append(make(fiHeap, 0, 64), fiItem{key: fq.constC, lb: 0, node: ix.root, pt: -1})
	return it
}

// next returns the next point in rank order.
func (it *fiIter) next() (pt int, d2 float64, ok bool) {
	if it.order != nil {
		if it.at >= len(it.order) {
			return 0, 0, false
		}
		i := it.order[it.at]
		it.at++
		return i, it.dist[i], true
	}
	for len(it.h) > 0 {
		top := it.h.pop()
		if top.node < 0 {
			return int(top.pt), top.key, true
		}
		it.expand(top)
	}
	return 0, 0, false
}

// expand evaluates a node's vantage point exactly and pushes its children
// with triangle-inequality bounds under the build metric.
func (it *fiIter) expand(item fiItem) {
	ix, fq := it.ix, it.fq
	n := &ix.nodes[item.node]
	if n.leafPts != nil {
		for _, p := range n.leafPts {
			it.h.push(fiItem{key: ix.refDist2At(fq, p), node: -1, pt: p})
		}
		return
	}
	it.h.push(fiItem{key: ix.refDist2At(fq, n.vp), node: -1, pt: n.vp})
	dq := math.Sqrt(ix.queryBuildDist2(fq, n.vp))
	push := func(node int32, lb float64) {
		if lb < item.lb {
			lb = item.lb // a parent's bound constrains every descendant
		}
		m := shrink(lb)
		it.h.push(fiItem{key: m*m + fq.constC, lb: lb, node: node, pt: -1})
	}
	push(n.inside, dq-n.rIn)
	push(n.outside, n.rOut-dq)
}

// CorpusIndex maintains per-system feature indexes over a growing corpus:
// an immutable tree over the prefix seen at the last rebuild plus a small
// linear tail of recent additions, rebuilt when the tail outgrows its bound
// or an addition raises a frozen scale. Lookups merge tree and tail in exact
// oracle order. Not safe for concurrent use; owners guard it.
type CorpusIndex struct {
	sys map[string]*sysCorpus
}

type sysCorpus struct {
	feats [][]KV
	poss  []int
	idx   *FeatureIndex // over feats[:built]; nil before the first lookup
	built int
	// stale forces a rebuild before the next lookup: an addition raised a
	// frozen per-key scale (the tree's geometry no longer bounds the new
	// metric) or carried a non-finite value.
	stale bool
}

// NewCorpusIndex returns an empty corpus index.
func NewCorpusIndex() *CorpusIndex { return &CorpusIndex{sys: map[string]*sysCorpus{}} }

// AddKV appends one session's pre-sorted feature list (not mutated
// afterwards) under its system. pos is the opaque caller position handed back
// by Walk.
func (ci *CorpusIndex) AddKV(system string, kvs []KV, pos int) {
	s := ci.sys[system]
	if s == nil {
		s = &sysCorpus{}
		ci.sys[system] = s
	}
	if s.idx != nil {
		for _, kv := range kvs {
			if !finite(kv.V) || math.Abs(kv.V) > s.idx.scale[kv.K] {
				s.stale = true
				break
			}
		}
	}
	s.feats = append(s.feats, kvs)
	s.poss = append(s.poss, pos)
}

// Len returns how many sessions the system holds.
func (ci *CorpusIndex) Len(system string) int {
	if s := ci.sys[system]; s != nil {
		return len(s.feats)
	}
	return 0
}

// rebuildTail is the tail length past which a lookup folds the tail into a
// fresh tree (also rebuilt whenever the prefix tree's scale went stale).
func rebuildTail(built int) int {
	if t := built / 4; t > 64 {
		return t
	}
	return 64
}

// Ready reports whether a Walk for system would serve without mutating the
// index — the tree exists, its scales are not stale, and the linear tail is
// within its bound. Owners that guard the index with a reader/writer lock
// use Ready to decide whether a lookup can run under the shared lock
// (Walk's only mutation is the rebuild branch; everything else allocates
// per-walk state). An empty or unknown system is trivially ready.
func (ci *CorpusIndex) Ready(system string) bool {
	s := ci.sys[system]
	if s == nil || len(s.feats) == 0 {
		return true
	}
	return s.idx != nil && !s.stale && len(s.feats)-s.built <= rebuildTail(s.built)
}

// Rebuild folds the system's tail into a fresh tree immediately, so
// subsequent Walks serve read-only until enough additions accumulate again.
// Owners call it under their exclusive lock when Ready reports false.
func (ci *CorpusIndex) Rebuild(system string) {
	s := ci.sys[system]
	if s == nil || len(s.feats) == 0 {
		return
	}
	s.idx = NewFeatureIndexKV(s.feats[:len(s.feats):len(s.feats)])
	s.built = len(s.feats)
	s.stale = false
}

// Walk yields (pos, ord) pairs in exactly the oracle's rank order for the
// system — ord is the session's insertion ordinal within the system (the
// index RankSessions would report), pos the caller position from AddKV.
func (ci *CorpusIndex) Walk(system string, features map[string]float64, yield func(pos, ord int) bool) {
	s := ci.sys[system]
	if s == nil || len(s.feats) == 0 {
		return
	}
	if !ci.Ready(system) {
		ci.Rebuild(system)
	}
	fq := s.idx.prepare(features)
	if !fq.fast {
		// The tree cannot serve the query, and a tree-side scan merged with
		// the tail would not reproduce the oracle's stable order across the
		// full corpus: scan everything as one unit.
		order, _ := s.idx.scan(fq, s.feats)
		for _, ord := range order {
			if !yield(s.poss[ord], ord) {
				return
			}
		}
		return
	}
	type tc struct {
		d2  float64
		ord int
	}
	var tail []tc
	for j := s.built; j < len(s.feats); j++ {
		tail = append(tail, tc{s.idx.refDist2(fq, s.feats[j]), j})
	}
	slices.SortFunc(tail, func(a, b tc) int {
		return cmp.Or(cmp.Compare(a.d2, b.d2), cmp.Compare(a.ord, b.ord))
	})
	it := s.idx.iter(fq)
	ti := 0
	hi, hd2, hok := it.next()
	for hok || ti < len(tail) {
		// Lexicographic (d², ordinal) merge: exactly the oracle's stable
		// rank order across prefix and tail.
		takeTree := hok && (ti >= len(tail) ||
			hd2 < tail[ti].d2 || (hd2 == tail[ti].d2 && hi < tail[ti].ord))
		var ord int
		if takeTree {
			ord = hi
		} else {
			ord = tail[ti].ord
		}
		if !yield(s.poss[ord], ord) {
			return
		}
		if takeTree {
			hi, hd2, hok = it.next()
		} else {
			ti++
		}
	}
}
