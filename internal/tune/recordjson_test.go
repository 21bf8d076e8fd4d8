package tune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestKeyMemoPerCount follows the metric-key memo through its paths: a map
// publishes its key list, the same key set reuses it without allocating, one
// swapped key replaces it, and a map of another count leaves it alone.
func TestKeyMemoPerCount(t *testing.T) {
	metrics := func(n int, prefix string) map[string]float64 {
		m := map[string]float64{}
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("%s_%02d", prefix, i)] = float64(i)
		}
		return m
	}
	memoKeys := func(n int) []string {
		if kl := keyMemo[n].Load(); kl != nil {
			return kl.keys
		}
		return nil
	}
	dbms, spark := metrics(23, "dbms"), metrics(31, "spark")
	rec := SessionRecord{Trials: []TrialRecord{{Metrics: dbms}, {Metrics: spark}}}
	buf, err := rec.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	dbmsList := keyMemo[23].Load()
	if !slices.IsSorted(dbmsList.keys) || len(dbmsList.keys) != 23 || len(memoKeys(31)) != 31 {
		t.Fatalf("memo after one record: %v, %v", memoKeys(23), memoKeys(31))
	}
	if allocs := testing.AllocsPerRun(20, func() { buf, _ = rec.AppendJSON(buf[:0]) }); allocs != 0 {
		t.Errorf("a record whose key sets are memoized costs %v allocations, want 0", allocs)
	}
	if keyMemo[23].Load() != dbmsList {
		t.Error("a hit republished the key list")
	}
	swapped := metrics(23, "dbms")
	delete(swapped, "dbms_22")
	swapped["dbms_zz"] = 1
	if _, err := (&SessionRecord{Trials: []TrialRecord{{Metrics: swapped}}}).AppendJSON(nil); err != nil {
		t.Fatal(err)
	}
	if got := memoKeys(23); got[22] != "dbms_zz" || len(memoKeys(31)) != 31 || memoKeys(31)[0] != "spark_00" {
		t.Errorf("after a swapped key: count 23 holds %v, count 31 holds %v", got, memoKeys(31))
	}
}

// TestKeyMemoConcurrent encodes, from four goroutines at once, records whose
// metric maps share one key count but not their keys, so every encode races
// the others' publishes and rollbacks; each must still write json.Marshal's
// bytes.
func TestKeyMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		m := map[string]float64{}
		for i := 0; i < 19; i++ {
			m[fmt.Sprintf("g%d_metric_%02d", g*(i%2), i)] = float64(g*100+i) / 7
		}
		rec := SessionRecord{System: "dbms", Trials: []TrialRecord{{Time: 1, Metrics: m}}}
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 500; i++ {
				if buf, err = rec.AppendJSON(buf[:0]); err != nil || !bytes.Equal(buf, want) {
					t.Errorf("goroutine %d, encode %d: %v\n  %s\nwant\n  %s", g, i, err, buf, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestKeyMemoConcurrentRace3(t *testing.T) { TestKeyMemoConcurrent(t) }
