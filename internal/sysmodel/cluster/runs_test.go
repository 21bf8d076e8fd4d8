package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tune"
)

// drawDigest draws a stream-chosen number of values below 4 000 (f of
// them), mixing the methods the simulators call, and digests every bit.
func drawDigest(rng *rand.Rand, f float64) tune.Result {
	n := int(f * float64(rng.Intn(4000)))
	h := uint64(14695981039346656037)
	for d := range n {
		var v uint64
		switch d % 4 {
		case 0:
			v = math.Float64bits(rng.Float64())
		case 1:
			v = math.Float64bits(rng.NormFloat64())
		case 2:
			v = math.Float64bits(rng.ExpFloat64())
		default:
			v = uint64(rng.Intn(1 + d))
		}
		h = (h ^ v) * 1099511628211
	}
	return tune.Result{Time: float64(h >> 11), Cost: float64(n)}
}

// oracleRun is run index i's result over rand.NewSource, the stream Runs
// must reproduce.
func oracleRun(seed, mult, i int64, f float64) tune.Result {
	return drawDigest(rand.New(rand.NewSource(seed+i*mult)), f)
}

// sameRun compares the two fields drawDigest sets.
func sameRun(a, b tune.Result) bool { return a.Time == b.Time && a.Cost == b.Cost }

const runsSeed, runsMult = 42, 2654435761

func digestRuns() *Runs {
	return NewRuns(runsSeed, runsMult, func(rng *rand.Rand, f float64, _ tune.Config) tune.Result {
		return drawDigest(rng, f)
	})
}

// TestRunsDrawMathRandStreams checks every run entry point hands eval run
// index i's math/rand stream, however many draws the runs before it made
// on the pooled registers.
func TestRunsDrawMathRandStreams(t *testing.T) {
	r := digestRuns()
	for i := int64(1); i <= 300; i++ {
		f := 1.0
		var got tune.Result
		switch i % 3 {
		case 0:
			got = r.Run(tune.Config{})
		case 1:
			f = 0.5
			got = r.RunFidelity(context.Background(), f, tune.Config{})
		default:
			got = r.RunIndexed(r.ReserveRuns(1), tune.Config{})
		}
		if want := oracleRun(runsSeed, runsMult, i, f); !sameRun(got, want) {
			t.Fatalf("run %d: got %+v, math/rand stream gives %+v", i, got, want)
		}
	}
	// RunEpochs hands every epoch the next index's one stream.
	const epochs = 4
	got := r.RunEpochs(tune.Config{}, holdController{}, epochs,
		func(rng *rand.Rand, e int, cur, next tune.Config) (tune.Config, tune.Result) {
			return next, drawDigest(rng, 1)
		})
	oracle := rand.New(rand.NewSource(runsSeed + 301*runsMult))
	var want tune.Result
	for range epochs {
		res := drawDigest(oracle, 1)
		want.Time += res.Time
		want.Cost += res.Cost
	}
	if !sameRun(got, want) {
		t.Fatalf("RunEpochs: got time %v cost %v, math/rand stream gives %v, %v", got.Time, got.Cost, want.Time, want.Cost)
	}
}

type holdController struct{}

func (holdController) Epoch(_ int, cur tune.Config, _ map[string]float64) tune.Config { return cur }

// TestConcurrentRunIndexedMatchesSerial runs reserved indices from four
// goroutines at once, sharing the register pool, and checks each result
// against the serial math/rand one.
func TestConcurrentRunIndexedMatchesSerial(t *testing.T) {
	const workers, runs = 4, 400
	r := digestRuns()
	got := make([]tune.Result, runs+1)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1 + w); i <= runs; i += workers {
				if i%2 == 0 {
					got[i] = r.RunIndexed(i, tune.Config{})
				} else {
					got[i] = r.RunIndexedFidelity(context.Background(), i, 0.25, tune.Config{})
				}
			}
		}()
	}
	wg.Wait()
	for i := int64(1); i <= runs; i++ {
		f := 1.0
		if i%2 != 0 {
			f = 0.25
		}
		if want := oracleRun(runsSeed, runsMult, i, f); !sameRun(got[i], want) {
			t.Fatalf("run %d: concurrent %+v, serial math/rand %+v", i, got[i], want)
		}
	}
}

func TestConcurrentRunIndexedMatchesSerialRace3(t *testing.T) {
	TestConcurrentRunIndexedMatchesSerial(t)
}

var noiseSink float64

// BenchmarkNoise is a run's noise cost: seeding its stream and making a
// dbms run's draws (3), a hundred, or a Spark run's thousands (3 671), over
// a fresh math/rand source and over a pooled, reseeded xrand register as
// Runs does.
func BenchmarkNoise(b *testing.B) {
	r := digestRuns()
	for _, draws := range []int{3, 100, 3671} {
		b.Run(fmt.Sprintf("source=math-rand/draws=%d", draws), func(b *testing.B) {
			for i := int64(0); b.Loop(); i++ {
				rng := rand.New(rand.NewSource(runsSeed + i*runsMult))
				for range draws {
					noiseSink += rng.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("source=xrand/draws=%d", draws), func(b *testing.B) {
			for i := int64(0); b.Loop(); i++ {
				rng := r.noise(i)
				for range draws {
					noiseSink += rng.Float64()
				}
				noiseStreams.Put(rng)
			}
		})
	}
}
