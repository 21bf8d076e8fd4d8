package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeSeeds are the seeds where rand.NewSource's normalisation branches:
// zero and the multiples of 2³¹−1 (which it maps to 89482311), negatives,
// the int64 extremes, and the run multipliers of the four simulators.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2, 89482311, -89482311,
	m31, -m31, 2 * m31, -2 * m31, m31 - 1, m31 + 1, 1 << 31, -1 << 31, 1 << 32,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	2654435761, 1442695040888963407, 6364136223846793005, 982451653,
}

// oracleSeeds are the edge seeds and 200 seeds strided across int64.
func oracleSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	for i := int64(0); i < 200; i++ {
		seeds = append(seeds, i*-7046029254386353131+i) // a golden-ratio stride, wrapping
	}
	return seeds
}

// drawBoth makes one draw with the same method, picked by pick, on got and
// on want and returns both.
func drawBoth(pick int, got, want *rand.Rand) (g, w any) {
	switch pick % 8 {
	case 0:
		return got.Float64(), want.Float64()
	case 1:
		return got.NormFloat64(), want.NormFloat64()
	case 2:
		return got.ExpFloat64(), want.ExpFloat64()
	case 3:
		return got.Int63(), want.Int63()
	case 4:
		return got.Uint64(), want.Uint64()
	case 5:
		n := 1 + pick/8%1000
		return got.Intn(n), want.Intn(n)
	case 6:
		n := 1<<40 + int64(pick) // above 2³¹−1: the path Intn takes for a large n
		return got.Int63n(n), want.Int63n(n)
	default:
		n := 1 + pick/8%9
		gp, wp := got.Perm(n), want.Perm(n)
		if slices.Equal(gp, wp) {
			return n, n
		}
		return fmt.Sprint(gp), fmt.Sprint(wp)
	}
}

// expectStream checks n mixed draws of got against want.
func expectStream(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	picker := rand.New(rand.NewSource(seed ^ 0x5eed))
	for d := 0; d < n; d++ {
		pick := picker.Intn(1 << 20)
		if g, w := drawBoth(pick, got, want); g != w {
			t.Fatalf("seed %d: draw %d (method %d): got %v, math/rand %v", seed, d, pick%8, g, w)
		}
	}
}

// TestMatchesMathRand holds New against rand.NewSource, the definition it
// reproduces: every method the simulators and tuners call, mixed, 12 000
// draws at each of the edge seeds and 200 strided ones.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		expectStream(t, seed, New(seed), rand.New(rand.NewSource(seed)), 12000)
	}
}

// TestMatchesMathRandPerMethod draws each method alone, so a method whose
// draws another method's would mask still fails on its own stream.
func TestMatchesMathRandPerMethod(t *testing.T) {
	for _, seed := range edgeSeeds {
		for method := range 8 {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for d := 0; d < 10000; d++ {
				if g, w := drawBoth(method+8*d, got, want); g != w {
					t.Fatalf("seed %d: draw %d of method %d: got %v, math/rand %v", seed, d, method, g, w)
				}
			}
		}
	}
}

// TestReseedMatchesFresh reuses one register: seed it, make k draws, reseed
// it and compare the stream with a fresh math/rand source. The k are the
// warm-up schedule's boundaries: the last draw that reads an unwritten tap
// word (273), the last that reads a seeded feed word (334), each ± 1, and
// a Spark run's order of magnitude (3 671 draws).
func TestReseedMatchesFresh(t *testing.T) {
	ks := []int{0, 1, 272, 273, 274, 333, 334, 335, 3671}
	for i, seed := range oracleSeeds()[:40] {
		for _, k := range ks {
			rng := New(seed*31 + int64(k))
			for range k {
				rng.Uint64()
			}
			rng.Seed(seed)
			expectStream(t, seed, rng, rand.New(rand.NewSource(seed)), 4000+i)
		}
	}
}
