package core

import "math/rand"

// workerRNG is the one generator a sweep, placement or experiment loop hands
// its randomized policies. The zero value is ready.
type workerRNG struct{ r *rand.Rand }

// seeded returns the generator restarted at seed and counts the reseed in
// core.rng_seeded. The stream is the one rand.New(rand.NewSource(seed))
// produces, draw for draw; the reseed is O(1) and allocates nothing, so a
// worker pays for one 5 KB source, not one per (repetition, policy, user).
func (w *workerRNG) seeded(seed int64) *rand.Rand {
	if w.r == nil {
		w.r = rand.New(&cloneSource{})
	}
	w.r.Seed(seed)
	obsRNGSeeded.Inc()
	return w.r
}

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

// cloneSource is a rand.Source64 whose stream is exactly that of the source
// rand.NewSource returns, but whose Seed is O(1): it stores the reduced seed
// and derives each state word on first read. math/rand's Seed walks the
// Lehmer generator 1,841 steps to fill all 607 words, while a policy draws a
// handful of values and so reads a few dozen words; x_k = x0·48271^k mod
// 2³¹−1 lets one word be computed from seedPow in three multiplications.
//
// A word is either derived from the seed (its valid bit is clear) or holds
// what Uint64 last wrote there (set); Seed clears the bitmap, so no word of
// a previous stream survives a reseed. The bitmap keeps the struct at 4,960
// bytes, in the same 5,376-byte allocation class as math/rand's source.
type cloneSource struct {
	tap, feed int
	x0        uint64                     // the seed reduced as math/rand reduces it
	valid     [(rngLen + 63) / 64]uint64 // bit i: vec[i] was written since Seed
	vec       [rngLen]uint64
}

// Seed restarts the stream at seed, reducing it exactly as math/rand does.
func (s *cloneSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.valid = [len(s.valid)]uint64{}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *cloneSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 advances the lagged-Fibonacci register one step:
// vec[feed] += vec[tap], reading either word from the seed if it has not
// been written since.
func (s *cloneSource) Uint64() uint64 {
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
func (s *cloneSource) word(i int) uint64 {
	if s.valid[i>>6]&(1<<(i&63)) != 0 {
		return s.vec[i]
	}
	return seededWord(s.x0, i) ^ rngCooked[i]
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
