// Package xrand is math/rand's default source, seeded in constant time: New(seed)
// draws exactly what rand.New(rand.NewSource(seed)) draws, value for value,
// through every *rand.Rand method.
//
// rand.NewSource fills a 607-word register at seeding, 1 841 steps of the
// generator x ← 48271·x mod (2³¹−1) with a division each, although a
// simulated run may then draw only a handful of values. That fill is a
// closed form: the generator's k-th value from the normalised seed s is
// v(k) = s·48271ᵏ mod (2³¹−1), and register word i is
//
//	v(21+3i)<<40 ^ v(22+3i)<<20 ^ v(23+3i) ^ rngCooked[i]
//
// so a table of the 1 842 powers and a Mersenne reduction give any word
// without a division. The lagged Fibonacci step behind every draw reads
// two words: draw j (from 1) reads feed word 334−j for j ≤ 334 and tap word
// 607−j, which no draw has written yet while j ≤ 273. The first 334 draws
// thus read every seeded word exactly once, in a fixed order, and this
// source computes each one at the draw that first reads it. From draw 335
// on it runs exactly as rand.NewSource's does.
package xrand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// m31 is the seeding generator's modulus, the Mersenne prime 2³¹−1.
	m31 = 1<<31 - 1
	// warmDraws is how many draws it takes to read every seeded word.
	warmDraws = rngLen - rngTap
)

// pow[k] is 48271ᵏ mod 2³¹−1 for every k the seeding reads, up to
// 23 + 3·606 = 1 841.
var pow = func() (p [3*rngLen + 21]uint64) {
	x := uint64(1)
	for k := range p {
		p[k] = x
		x = x * 48271 % m31
	}
	return p
}()

// source is a rand.Source64 that draws what rand.NewSource's does.
type source struct {
	tap, feed int
	// cold counts the draws left that read a word no draw has read yet.
	cold int
	// s is the normalised seed, 1 ≤ s < 2³¹−1.
	s   uint64
	vec [rngLen]int64
}

// New returns a *rand.Rand that draws what rand.New(rand.NewSource(seed))
// draws. Its Seed method reseeds it in constant time, so one can be reused
// for stream after stream.
func New(seed int64) *rand.Rand {
	src := new(source)
	src.Seed(seed)
	return rand.New(src)
}

// Seed implements rand.Source: it normalises seed as rand.NewSource does
// and leaves every register word to the draw that first reads it.
func (src *source) Seed(seed int64) {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	src.tap, src.feed, src.cold, src.s = 0, rngLen-rngTap, warmDraws, uint64(seed)
}

// value is the seeding generator's k-th value, s·48271ᵏ mod 2³¹−1. The
// product is below 2⁶², and 2³¹ ≡ 1 folds it below 2³² and then to at most
// 2³¹, so one conditional subtraction finishes the reduction.
func (src *source) value(k int) int64 {
	p := src.s * pow[k]
	p = p&m31 + p>>31
	p = p&m31 + p>>31
	if p >= m31 {
		p -= m31
	}
	return int64(p)
}

// word is register word i as rand.NewSource's seeding writes it.
func (src *source) word(i int) int64 {
	k := 21 + 3*i
	return src.value(k)<<40 ^ src.value(k+1)<<20 ^ src.value(k+2) ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (src *source) Int63() int64 { return int64(src.Uint64() & rngMask) }

// Uint64 implements rand.Source64: the lagged Fibonacci step, which during
// the first warmDraws draws first computes the seeded words it reads.
func (src *source) Uint64() uint64 {
	src.tap--
	if src.tap < 0 {
		src.tap += rngLen
	}
	src.feed--
	if src.feed < 0 {
		src.feed += rngLen
	}
	if src.cold > 0 {
		src.cold--
		src.vec[src.feed] = src.word(src.feed)
		if src.tap >= warmDraws {
			src.vec[src.tap] = src.word(src.tap)
		}
	}
	x := src.vec[src.feed] + src.vec[src.tap]
	src.vec[src.feed] = x
	return uint64(x)
}
