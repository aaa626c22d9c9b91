package mathrand

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// generator is the method set Rand shares with *rand.Rand.
type generator interface {
	Intn(n int) int
	Int31n(n int32) int32
	Int63n(n int64) int64
	Int31() int32
	Int63() int64
	Uint64() uint64
	Float64() float64
	NormFloat64() float64
	Shuffle(n int, swap func(i, j int))
}

var (
	_ generator = (*Rand)(nil)
	_ generator = (*rand.Rand)(nil)
)

// bigN is an Intn argument above 2³¹−1 where int has 64 bits (Intn's Int63n
// path); where int has 32 it does not fit, and the call draws Intn(7).
var bigN = func() int {
	n := int64(1)<<40 + 3
	if int64(int(n)) != n {
		return 7
	}
	return int(n)
}()

// numOps is the number of distinct calls draw makes.
const numOps = 14

// draw makes call op of the mixed sequence on g; i varies the arguments of
// the calls that take a length. The calls cover every method of generator:
// Intn on its power-of-two path, on its rejection path (2³⁰+1 rejects almost
// half of its draws) and past 31 bits, Int31n, Int63n and Shuffle
// (math/rand's other reduction), so a sequence of them reads the stream well
// past the 273-word lag and the 607-word wrap.
func draw(g generator, op byte, i int) any {
	switch op % numOps {
	case 0:
		return g.Intn(10)
	case 1:
		return g.Intn(1 << 12)
	case 2:
		return g.Intn(1<<30 + 1)
	case 3:
		return g.Intn(bigN)
	case 4:
		return g.Intn(1 + i%2000)
	case 5:
		return g.Int31n(3)
	case 6:
		return g.Int31n(1<<31 - 1)
	case 7:
		return g.Int63n(1<<40 + 3)
	case 8:
		return g.Int31()
	case 9:
		return g.Int63()
	case 10:
		return g.Uint64()
	case 11:
		return g.Float64()
	case 12:
		return g.NormFloat64()
	default:
		s := make([]int, 1+i%17)
		for j := range s {
			s[j] = j
		}
		g.Shuffle(len(s), func(x, y int) { s[x], s[y] = s[y], s[x] })
		return s
	}
}

// compareDraws makes the calls ops names on want and got and reports the
// first whose results differ.
func compareDraws(want, got generator, ops []byte) error {
	for i, op := range ops {
		a, b := draw(want, op, i), draw(got, op, i)
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("call %d (op %d): math/rand %v, mathrand %v", i, op%numOps, a, b)
		}
	}
	return nil
}

// cycle is n calls that cycle through every op.
func cycle(n int) []byte {
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(i % numOps)
	}
	return ops
}

// edgeSeeds are the seeds math/rand's reduction treats specially: zero (and
// the seed it is mapped to), the modulus 2³¹−1 and its multiples (reduced to
// zero), ±1 around them, negatives, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311,
	int32max, -int32max, int32max - 1, int32max + 1, -int32max + 1, -int32max - 1,
	2 * int32max, -2 * int32max, 1 << 31, -1 << 31, 1 << 30 * int32max,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
}

// sourceRand is a *rand.Rand over a Source seeded with seed.
func sourceRand(seed int64) *rand.Rand {
	src := &Source{}
	src.Seed(seed)
	return rand.New(src)
}

// TestEdgeSeeds: at every edge of math/rand's seed reduction, Rand and a
// *rand.Rand over Source replay math/rand for 3,000 mixed calls.
func TestEdgeSeeds(t *testing.T) {
	ops := cycle(3000)
	for _, seed := range edgeSeeds {
		if err := compareDraws(rand.New(rand.NewSource(seed)), New(seed), ops); err != nil {
			t.Errorf("Rand, seed %d: %v", seed, err)
		}
		if err := compareDraws(rand.New(rand.NewSource(seed)), sourceRand(seed), ops); err != nil {
			t.Errorf("Source, seed %d: %v", seed, err)
		}
	}
}

// TestMatchesMathRand is the draw-for-draw oracle: for random seeds of
// either sign and random interleavings of every call, Rand and Source give
// math/rand's values.
func TestMatchesMathRand(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	err := quick.Check(func(seed int64, ops []byte) bool {
		ops = append(ops, cycle(1500)...)
		if err := compareDraws(rand.New(rand.NewSource(seed)), New(seed), ops); err != nil {
			t.Logf("Rand, seed %d: %v", seed, err)
			return false
		}
		if err := compareDraws(rand.New(rand.NewSource(seed)), sourceRand(seed), ops); err != nil {
			t.Logf("Source, seed %d: %v", seed, err)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestReseedLeaksNothing: a reseed in the middle of a stream — after a few
// draws, or after enough that every word was rewritten — must start the new
// seed's stream from scratch. A Source word whose valid bit survived Seed
// would replay the previous stream's value here.
func TestReseedLeaksNothing(t *testing.T) {
	ops := cycle(2000)
	err := quick.Check(func(first, seed int64, drawn uint16) bool {
		r, src := New(first), &Source{}
		src.Seed(first)
		for range int(drawn) % 1500 {
			r.Uint64()
			src.Uint64()
		}
		r.Seed(seed)
		src.Seed(seed)
		if err := compareDraws(rand.New(rand.NewSource(seed)), r, ops); err != nil {
			t.Logf("Rand, seed %d after %d draws of seed %d: %v", seed, int(drawn)%1500, first, err)
			return false
		}
		if err := compareDraws(rand.New(rand.NewSource(seed)), rand.New(src), ops); err != nil {
			t.Logf("Source, seed %d after %d draws of seed %d: %v", seed, int(drawn)%1500, first, err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInvalidArgumentsPanic: Intn, Int31n and Shuffle refuse what math/rand
// refuses.
func TestInvalidArgumentsPanic(t *testing.T) {
	r := New(1)
	for name, call := range map[string]func(){
		"Intn(0)":     func() { r.Intn(0) },
		"Intn(-1)":    func() { r.Intn(-1) },
		"Int31n(0)":   func() { r.Int31n(0) },
		"Int63n(0)":   func() { r.Int63n(0) },
		"Shuffle(-1)": func() { r.Shuffle(-1, func(int, int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzCloneSource lets the mutator pick the seed and a mixed call sequence.
// Both generators first run a prefix of another seed's stream, so every input
// also checks that Seed leaves nothing of it behind.
func FuzzCloneSource(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(700), cycle(numOps+i))
	}
	f.Fuzz(func(t *testing.T, seed int64, prefix uint16, ops []byte) {
		r, src := New(^seed), &Source{}
		src.Seed(^seed)
		for range int(prefix) % 700 {
			r.Uint64()
			src.Uint64()
		}
		r.Seed(seed)
		src.Seed(seed)
		if err := compareDraws(rand.New(rand.NewSource(seed)), r, ops); err != nil {
			t.Fatalf("Rand, seed %d: %v", seed, err)
		}
		if err := compareDraws(rand.New(rand.NewSource(seed)), rand.New(src), ops); err != nil {
			t.Fatalf("Source, seed %d: %v", seed, err)
		}
	})
}

var (
	sinkInt   int
	sinkFloat float64
)

// BenchmarkIntn, BenchmarkFloat64, BenchmarkNormFloat64 and BenchmarkShuffle
// time one call of each primitive on Rand beside the same call on math/rand's
// *rand.Rand. Intn's argument varies, as in the synthesizer's permutations.
func BenchmarkIntn(b *testing.B) {
	b.Run("mathrand", func(b *testing.B) {
		r := New(1)
		for i := 0; b.Loop(); i++ {
			sinkInt = r.Intn(1 + i&1023)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; b.Loop(); i++ {
			sinkInt = r.Intn(1 + i&1023)
		}
	})
}

func BenchmarkFloat64(b *testing.B) {
	b.Run("mathrand", func(b *testing.B) {
		r := New(1)
		for b.Loop() {
			sinkFloat = r.Float64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for b.Loop() {
			sinkFloat = r.Float64()
		}
	})
}

func BenchmarkNormFloat64(b *testing.B) {
	b.Run("mathrand", func(b *testing.B) {
		r := New(1)
		for b.Loop() {
			sinkFloat = r.NormFloat64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for b.Loop() {
			sinkFloat = r.NormFloat64()
		}
	})
}

// BenchmarkShuffle shuffles 4,096 stubs, a configuration model's pass over a
// small graph; ns/op is per shuffle.
func BenchmarkShuffle(b *testing.B) {
	s := make([]int32, 4096)
	swap := func(i, j int) { s[i], s[j] = s[j], s[i] }
	b.Run("mathrand", func(b *testing.B) {
		r := New(1)
		for b.Loop() {
			r.Shuffle(len(s), swap)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for b.Loop() {
			r.Shuffle(len(s), swap)
		}
	})
}
