// Package mathrand replays math/rand's seeded generator — the stream
// rand.New(rand.NewSource(seed)) produces — and owns the seeding arithmetic
// both of its types share.
//
// Rand is a concrete generator, seeded eagerly, for the loops that draw
// millions of values off one seed (dataset synthesis, schedule tables):
// Uint64, Int63, Int31 and Float64 inline, and Intn, Int31n and Shuffle are
// math/rand's own algorithms without the interface call per draw.
// Source is a rand.Source64 whose Seed is O(1), for the loops that reseed
// thousands of times and draw a handful of values a seed (the sweep and
// placement workers hand it to their policies as a *rand.Rand).
//
// Both are draw-for-draw equal to math/rand for every seed; the oracle tests
// and FuzzCloneSource pin that against math/rand itself.
package mathrand

import "math/rand"

// The parameters of math/rand's additive lagged-Fibonacci source and of the
// Lehmer generator (x ↦ 48271·x mod 2³¹−1) its Seed fills the state from.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	seedMul  = 48271
	// seedSkip is how many Lehmer steps Seed discards before word 0.
	seedSkip = 20
)

// seedPow[k] is 48271^k mod 2³¹−1, for every step Seed takes: word i of a
// seeded state is built from steps 21+3i, 22+3i and 23+3i.
var seedPow [seedSkip + 3*rngLen + 1]uint64

// rngCooked is the constant math/rand XORs into each seeded word, recovered
// from math/rand's own output at init (see recoverCooked).
var rngCooked [rngLen]uint64

func init() {
	seedPow[0] = 1
	for k := 1; k < len(seedPow); k++ {
		seedPow[k] = mulMod(seedPow[k-1], seedMul)
	}
	recoverCooked()
}

// reduceSeed reduces seed exactly as math/rand's Seed does: modulo 2³¹−1
// into [1, 2³¹−1), with zero mapped to 89482311.
func reduceSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seededWord is the Lehmer part of word i of the state math/rand's Seed
// builds from the reduced seed x0.
func seededWord(x0 uint64, i int) uint64 {
	p := seedPow[seedSkip+1+3*i:][:3]
	return mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2])
}

// mulMod returns a·b mod 2³¹−1 for a, b in [0, 2³¹−1): the product fits in 62
// bits, and folding its high bits onto its low ones (2³¹ ≡ 1) leaves at most
// one modulus to subtract.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// recoverCooked derives rngCooked from a math/rand source. After Seed, the
// first 607 draws write every state word exactly once (feed visits each
// index once per lap), so those draws are the whole state; undoing the
// additions newest first (vec[feed] -= vec[tap]; the tap word is never the
// one a draw writes) gives back the seeded state, and XORing out the Lehmer
// part leaves the constant.
func recoverCooked() {
	const cookedSeed = 1
	src := rand.NewSource(cookedSeed).(rand.Source64)
	var vec [rngLen]uint64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = src.Uint64()
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ seededWord(cookedSeed, i)
	}
}

// Rand is math/rand's seeded generator as a concrete type: its stream is
// rand.New(rand.NewSource(seed))'s, call for call, for the methods it has.
// NormFloat64 and Int63n run math/rand's own code over a *rand.Rand view of
// the same state, so the ziggurat tables are math/rand's and nothing of them
// is copied. A Rand is not safe for concurrent use.
type Rand struct {
	tap, feed int
	vec       [rngLen]uint64
	view      *rand.Rand // math/rand's methods over this state
}

// New returns a generator seeded with seed.
func New(seed int64) *Rand {
	r := new(Rand)
	r.view = rand.New(r)
	r.Seed(seed)
	return r
}

// Seed restarts the stream at seed. Unlike Source it fills the whole state
// now, as math/rand does: a Rand is seeded once and drawn from many times.
func (r *Rand) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	x0 := reduceSeed(seed)
	for i := range r.vec {
		r.vec[i] = seededWord(x0, i) ^ rngCooked[i]
	}
}

// Uint64 advances the lagged-Fibonacci register one step.
func (r *Rand) Uint64() uint64 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	r.tap, r.feed = tap, feed
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 {
	//dosn:boundschecked a 63-bit value shifted right by 32 has 31 bits
	return int32(r.Int63() >> 32)
}

// Float64 returns a pseudo-random number in [0.0, 1.0).
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// NormFloat64 returns a standard normal deviate: math/rand's ziggurat over
// this generator's stream.
func (r *Rand) NormFloat64() float64 { return r.view.NormFloat64() }

// Int63n returns a pseudo-random number in [0, n); it panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 { return r.view.Int63n(n) }

// Intn returns a pseudo-random number in [0, n); it panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Int31n returns a pseudo-random number in [0, n); it panics if n <= 0.
//
// math/rand draws Int31 until the draw is at most the rejection bound
// int31nMax(n) and reduces it mod n. Every draw up to 2³¹−1−n is below the
// bound, so the bound — a second division — is computed only for a draw
// above that, once in about 2³¹/n calls; the draws kept and the values
// returned are math/rand's.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is a power of two, can mask
		return r.Int31() & (n - 1)
	}
	v := r.Int31()
	if v > int32max-n {
		for max := int31nMax(n); v > max; {
			v = r.Int31()
		}
	}
	return v % n
}

// int31nMax is Int31n's rejection bound: the largest Int31 draw it keeps.
func int31nMax(n int32) int32 {
	return int32((1 << 31) - 1 - (1<<31)%uint32(n))
}

// int31n is math/rand's unexported Lemire reduction, which Shuffle draws
// with: n·v>>32 over a 32-bit draw, rejecting the few draws that would bias
// it. Int31n's results differ from it; the two are not interchangeable.
func (r *Rand) int31n(n int32) int32 {
	v := r.uint32()
	prod := uint64(v) * uint64(n)
	//dosn:boundschecked the low 32 bits of the product, as math/rand keeps them
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = r.uint32()
			prod = uint64(v) * uint64(n)
			//dosn:boundschecked the low 32 bits of the product, as math/rand keeps them
			low = uint32(prod)
		}
	}
	//dosn:boundschecked v < 2³² and n < 2³¹, so the product's high half is < n
	return int32(prod >> 32)
}

// uint32 is math/rand's Uint32: the high 32 of a 63-bit draw.
func (r *Rand) uint32() uint32 {
	//dosn:boundschecked a 63-bit value shifted right by 31 has 32 bits
	return uint32(r.Int63() >> 31)
}

// Shuffle pseudo-randomizes the order of n elements through swap, drawing as
// math/rand's Shuffle does; it panics if n < 0.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("invalid argument to Shuffle")
	}
	i := n - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(r.Int63n(int64(i + 1)))
		swap(i, j)
	}
	for ; i > 0; i-- {
		j := int(r.int31n(int32(i + 1)))
		swap(i, j)
	}
}

// Source is a rand.Source64 whose stream is exactly that of the source
// rand.NewSource returns, but whose Seed is O(1): it stores the reduced seed
// and derives each state word on first read. math/rand's Seed walks the
// Lehmer generator 1,841 steps to fill all 607 words, while a policy draws a
// handful of values and so reads a few dozen words; x_k = x0·48271^k mod
// 2³¹−1 lets one word be computed from seedPow in three multiplications.
//
// A word is either derived from the seed (its valid bit is clear) or holds
// what Uint64 last wrote there (set); Seed clears the bitmap, so no word of
// a previous stream survives a reseed. The bitmap keeps the struct at 4,960
// bytes, in the same 5,376-byte allocation class as math/rand's source. A
// Source must be seeded before its first draw.
type Source struct {
	tap, feed int
	x0        uint64                     // the seed reduced as math/rand reduces it
	valid     [(rngLen + 63) / 64]uint64 // bit i: vec[i] was written since Seed
	vec       [rngLen]uint64
}

// Seed restarts the stream at seed, reducing it exactly as math/rand does.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	s.x0 = reduceSeed(seed)
	s.valid = [len(s.valid)]uint64{}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 advances the lagged-Fibonacci register one step:
// vec[feed] += vec[tap], reading either word from the seed if it has not
// been written since.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	s.valid[s.feed>>6] |= 1 << (s.feed & 63)
	return x
}

// word returns state word i.
func (s *Source) word(i int) uint64 {
	if s.valid[i>>6]&(1<<(i&63)) != 0 {
		return s.vec[i]
	}
	return seededWord(s.x0, i) ^ rngCooked[i]
}

// Both types are sources math/rand can draw from; a Rand is its own view's.
var (
	_ rand.Source64 = (*Source)(nil)
	_ rand.Source64 = (*Rand)(nil)
)
