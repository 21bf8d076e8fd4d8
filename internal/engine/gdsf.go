package engine

import (
	"container/heap"

	"repro/internal/tune"
)

// gdsfMemo is the candidate-keyed result cache behind the memoized evaluator:
// it retains up to cap results (every result when cap ≤ 0, where nothing is
// ever evicted and it behaves as a plain map). It is driven only from the
// driver goroutine — memoized makes every cache decision in batch order — so
// it does not lock, and it is deterministic: the same sequence of get/put
// calls produces the same hits, misses, and retained set at any worker count.
//
// Under a cap it evicts by Greedy-Dual-Size-Frequency with every entry the
// same size, so an entry's retention value is
//
//	priority = clock + frequency × cost
//
// where cost is the simulated seconds a hit saves (the memoized result's
// runtime) and clock is the inflation term that ages out entries whose
// hit history stopped paying: it rises to the evicted priority on every
// eviction, so an old entry must keep earning hits to stay above freshly
// inserted ones. Long-running sessions that revisit expensive
// configurations keep them memoized; cheap one-off probes are the first
// to go.
//
// Eviction is a min-heap on (priority, insertion sequence): exact priority
// ties — common when costs are quantized — always evict the oldest entry,
// keeping the retained set independent of map iteration order.
type gdsfMemo struct {
	cap          int
	clock        float64
	seq          int64
	byKey        map[string]*gdsfEntry
	h            gdsfHeap
	hits, misses int // lifetime lookups
}

type gdsfEntry struct {
	key  string
	res  tune.Result
	freq int
	pri  float64
	seq  int64 // insertion order: deterministic tie-break
	idx  int   // heap position
}

func newGDSFMemo(capacity int) *gdsfMemo {
	return &gdsfMemo{cap: capacity, byKey: map[string]*gdsfEntry{}}
}

// cost values a hit by the simulated time it avoids re-spending. Failed or
// degenerate results (NaN, negative) are worth nothing beyond recency.
func gdsfCost(r tune.Result) float64 {
	if r.Failed || !(r.Time > 0) {
		return 0
	}
	return r.Time
}

func (c *gdsfMemo) get(key string) (tune.Result, bool) {
	e, ok := c.byKey[key]
	if !ok {
		c.misses++
		return tune.Result{}, false
	}
	c.hits++
	e.freq++
	e.pri = c.clock + float64(e.freq)*gdsfCost(e.res)
	heap.Fix(&c.h, e.idx)
	return e.res, true
}

func (c *gdsfMemo) put(key string, r tune.Result) {
	if e, ok := c.byKey[key]; ok {
		// Refresh in place: memoized never stores over a hit, but a replayed
		// history can legitimately re-put a key.
		e.res = r
		e.pri = c.clock + float64(e.freq)*gdsfCost(r)
		heap.Fix(&c.h, e.idx)
		return
	}
	for c.cap > 0 && len(c.byKey) >= c.cap {
		evicted := heap.Pop(&c.h).(*gdsfEntry)
		delete(c.byKey, evicted.key)
		// The GDSF aging step: future entries start at the priority level
		// the cache just proved too low to keep.
		if evicted.pri > c.clock {
			c.clock = evicted.pri
		}
	}
	c.seq++
	e := &gdsfEntry{key: key, res: r, freq: 1, seq: c.seq}
	e.pri = c.clock + gdsfCost(r)
	c.byKey[key] = e
	heap.Push(&c.h, e)
}

type gdsfHeap []*gdsfEntry

func (h gdsfHeap) Len() int { return len(h) }
func (h gdsfHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h gdsfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *gdsfHeap) Push(x any) {
	e := x.(*gdsfEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *gdsfHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
