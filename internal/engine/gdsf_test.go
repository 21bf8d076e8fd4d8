package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tune"
)

func res(t float64) tune.Result { return tune.Result{Time: t} }

// TestGDSFKeepsExpensiveHotEntries: under capacity pressure the cache
// sacrifices cheap one-off results before frequently-hit expensive ones —
// the whole point of valuing entries by frequency × cost.
func TestGDSFKeepsExpensiveHotEntries(t *testing.T) {
	c := newGDSFMemo(2)
	c.put("expensive", res(100))
	c.put("cheap", res(1))
	if _, ok := c.get("expensive"); !ok {
		t.Fatal("expensive entry missing before any eviction")
	}
	// Third insert forces one eviction: the cheap unreferenced entry goes.
	c.put("other", res(5))
	if _, ok := c.get("expensive"); !ok {
		t.Error("expensive hot entry evicted before cheap cold one")
	}
	if _, ok := c.get("cheap"); ok {
		t.Error("cheap cold entry survived past capacity")
	}
}

// TestGDSFTieBreakIsInsertionOrder: exact priority ties evict the oldest
// entry, so the retained set never depends on map iteration order.
func TestGDSFTieBreakIsInsertionOrder(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		c := newGDSFMemo(3)
		c.put("a", res(2))
		c.put("b", res(2))
		c.put("c", res(2))
		c.put("d", res(2)) // all priorities equal: "a" must go
		if _, ok := c.get("a"); ok {
			t.Fatal("oldest tied entry retained")
		}
		for _, k := range []string{"b", "c", "d"} {
			if _, ok := c.get(k); !ok {
				t.Fatalf("younger tied entry %q evicted", k)
			}
		}
	}
}

// TestGDSFClockAgesOutStaleValue: an expensive entry that stops earning
// hits is eventually displaced by a stream of cheap entries — the aging
// clock rises with every eviction until past value no longer dominates.
func TestGDSFClockAgesOutStaleValue(t *testing.T) {
	c := newGDSFMemo(2)
	c.put("stale", res(50))
	for i := 0; i < 200; i++ {
		c.put(fmt.Sprintf("k%d", i), res(1))
	}
	if _, ok := c.get("stale"); ok {
		t.Error("stale expensive entry still cached after 200 cheap evictions")
	}
}

// TestGDSFDegenerateCosts: failed, zero, negative, and NaN runtimes are
// worth nothing beyond recency and must not wedge the heap.
func TestGDSFDegenerateCosts(t *testing.T) {
	c := newGDSFMemo(2)
	c.put("failed", tune.Result{Time: 100, Failed: true})
	c.put("nan", res(0/zero()))
	c.put("neg", res(-5))
	c.put("ok", res(1))
	if _, ok := c.get("ok"); !ok {
		t.Error("positive-cost entry lost among degenerate ones")
	}
	if len(c.byKey) != 2 || c.h.Len() != 2 {
		t.Errorf("cache overflowed its cap: %d keys, %d heap entries", len(c.byKey), c.h.Len())
	}
}

func zero() float64 { return 0 } // defeats the constant-division vet check

// TestGDSFHitRateApproachesUnbounded: on a skewed access stream a GDSF
// cache holding a tenth of the key space should recover most of the
// unbounded cache's hits — and must beat plain recency-blind clairvoyance of
// nothing (0%). This is the memo-pressure scenario the bench harness
// measures; here it gates a floor so regressions fail fast.
func TestGDSFHitRateApproachesUnbounded(t *testing.T) {
	stream := func(m *gdsfMemo) (hits, misses int) {
		rng := rand.New(rand.NewSource(41))
		zipf := rand.NewZipf(rng, 1.3, 1, 199) // 200 keys, heavily skewed
		for i := 0; i < 20000; i++ {
			k := int(zipf.Uint64())
			key := fmt.Sprintf("cfg-%d", k)
			if _, ok := m.get(key); !ok {
				m.put(key, res(1+float64(k%7)))
			}
		}
		return m.hits, m.misses
	}
	mapHits, mapMisses := stream(newGDSFMemo(0)) // cap 0: nothing is ever evicted
	if mapMisses > 200 {
		t.Fatalf("the unbounded memo missed %d times on 200 keys: it evicted", mapMisses)
	}
	gdsfHits, _ := stream(newGDSFMemo(20)) // a tenth of the key space
	if mapHits == 0 {
		t.Fatal("skewed stream produced no repeats")
	}
	if float64(gdsfHits) < 0.7*float64(mapHits) {
		t.Errorf("GDSF at 10%% capacity recovered %d of %d unbounded hits (< 70%%)", gdsfHits, mapHits)
	}
}

// TestEngineMemoCapDeterministicAcrossWorkers: a bounded memo changes which
// repeats are served from cache, but for a fixed seed the recorded trials
// are still identical at any worker count — eviction happens in batch order
// on the driver goroutine.
func TestEngineMemoCapDeterministicAcrossWorkers(t *testing.T) {
	b := tune.Budget{Trials: 24}
	run := func(workers int) *tune.TuningResult {
		tgt := newCountingTarget()
		return tuneJob(t, Job{Tuner: proposing(&cyclingProposer{space: tgt.space}), Target: tgt, Budget: b, Parallel: workers, MemoCap: 4})
	}
	seq := run(1)
	for _, w := range []int{2, 8} {
		sameResult(t, seq, run(w), fmt.Sprintf("memo-cap workers=1 vs %d", w))
	}
}

// TestEngineMemoCapBoundsRetention: with more distinct configurations than
// cap, re-proposals of evicted configurations re-run; with an unbounded
// cache they would not.
func TestEngineMemoCapBoundsRetention(t *testing.T) {
	b := tune.Budget{Trials: 20}

	bounded := newCountingTarget()
	tuneJob(t, Job{Tuner: proposing(&cyclingProposer{space: bounded.space, distinct: 5}), Target: bounded, Budget: b, MemoCap: 2})
	unbounded := newCountingTarget()
	tuneJob(t, Job{Tuner: proposing(&cyclingProposer{space: unbounded.space, distinct: 5}), Target: unbounded, Budget: b, Memo: true})
	if got, want := unbounded.calls.Load(), int64(5); got != want {
		t.Errorf("unbounded cache ran %d evaluations, want %d (one per distinct config)", got, want)
	}
	if bounded.calls.Load() <= unbounded.calls.Load() {
		t.Errorf("bounded cache ran %d evaluations, unbounded ran %d — eviction never happened",
			bounded.calls.Load(), unbounded.calls.Load())
	}
}

// cyclingProposer proposes `distinct` configurations round-robin (default 3),
// one per batch, so bounded caches face steady reuse under pressure.
type cyclingProposer struct {
	space    *tune.Space
	distinct int
	n        int
}

func (p *cyclingProposer) Propose(int) []tune.Config {
	d := p.distinct
	if d <= 0 {
		d = 3
	}
	v := float64(p.n%d) / float64(d)
	p.n++
	return []tune.Config{p.space.FromVector([]float64{v})}
}
func (p *cyclingProposer) Observe(tune.Trial) {}
