package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dosn/internal/mathrand"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
)

// compareDraws makes the same calls on want and got and reports the first
// whose results differ. The calls cycle through every *rand.Rand method the
// policies and experiments use: Intn on its power-of-two and rejection
// paths, Int63n (Intn's path past 31 bits, called directly so the test
// builds where int has 32), Int63, Uint64, Float64, Perm and Shuffle — so
// the stream is read well past the 273-word lag and the 607-word wrap.
func compareDraws(want, got *rand.Rand, calls int) error {
	for i := 0; i < calls; i++ {
		var a, b any
		switch i % 10 {
		case 0:
			a, b = want.Intn(10), got.Intn(10)
		case 1:
			a, b = want.Intn(1<<12), got.Intn(1<<12)
		case 2: // rejects almost half of its draws
			a, b = want.Intn(1<<30+1), got.Intn(1<<30+1)
		case 3:
			a, b = want.Int63n(1<<40+3), got.Int63n(1<<40+3)
		case 4:
			a, b = want.Int63(), got.Int63()
		case 5:
			a, b = want.Uint64(), got.Uint64()
		case 6:
			a, b = want.Float64(), got.Float64()
		case 7:
			a, b = want.Perm(1+i%23), got.Perm(1+i%23)
		case 8:
			sa, sb := make([]int, 1+i%17), make([]int, 1+i%17)
			for j := range sa {
				sa[j], sb[j] = j, j
			}
			want.Shuffle(len(sa), func(x, y int) { sa[x], sa[y] = sa[y], sa[x] })
			got.Shuffle(len(sb), func(x, y int) { sb[x], sb[y] = sb[y], sb[x] })
			a, b = sa, sb
		case 9:
			a, b = want.Int31n(3), got.Int31n(3)
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("call %d: math/rand %v, clone %v", i, a, b)
		}
	}
	return nil
}

// cloneStreamMismatch compares calls draws of a worker generator seeded at
// seed with a fresh math/rand generator at the same seed.
func cloneStreamMismatch(seed int64, calls int) error {
	var gen workerRNG
	return compareDraws(rand.New(rand.NewSource(seed)), gen.seeded(seed), calls)
}

// int32max is the modulus of math/rand's seed reduction, 2³¹−1.
const int32max = math.MaxInt32

// edgeSeeds are the seeds math/rand's reduction treats specially: zero (and
// the seed it is mapped to), the modulus 2³¹−1 and its multiples (reduced to
// zero), ±1 around them, negatives, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311,
	int32max, -int32max, int32max - 1, int32max + 1, -int32max + 1, -int32max - 1,
	2 * int32max, -2 * int32max, 1 << 31, -1 << 31, 1 << 30 * int32max,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
}

// TestCloneSourceEdgeSeeds: at every edge of math/rand's seed reduction the
// worker generator's stream (a *rand.Rand over mathrand.Source) is
// math/rand's for 2,500 calls.
func TestCloneSourceEdgeSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		if err := cloneStreamMismatch(seed, 2500); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestCloneSourceMatchesMathRand is the draw-for-draw oracle: for random
// seeds of either sign, 2,500 calls through *rand.Rand give math/rand's
// values.
func TestCloneSourceMatchesMathRand(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	err := quick.Check(func(seed int64) bool {
		if err := cloneStreamMismatch(seed, 2500); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloneSourceReseedLeaksNothing: reseeding the worker generator in the
// middle of a stream — after a few draws, or after enough that every word
// was rewritten — must start the new seed's stream from scratch. A word whose
// valid bit survived Seed would replay the previous stream's value here.
func TestCloneSourceReseedLeaksNothing(t *testing.T) {
	err := quick.Check(func(first, seed int64, drawn uint16) bool {
		var gen workerRNG
		gen.seeded(first)
		for range int(drawn) % 1500 {
			gen.r.Uint64()
		}
		got := gen.seeded(seed)
		if err := compareDraws(rand.New(rand.NewSource(seed)), got, 2000); err != nil {
			t.Logf("seed %d after %d draws of seed %d: %v", seed, int(drawn)%1500, first, err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRNGCountsEveryReseed: each seeded call restarts the one
// generator at math/rand's stream for its seed and advances core.rng_seeded
// by exactly one.
func TestWorkerRNGCountsEveryReseed(t *testing.T) {
	var gen workerRNG
	for i, seed := range edgeSeeds {
		before := obsRNGSeeded.Value()
		r := gen.seeded(seed)
		if n := obsRNGSeeded.Value() - before; n != 1 {
			t.Fatalf("seeded advanced core.rng_seeded by %d, want 1", n)
		}
		if i > 0 && r != gen.r {
			t.Fatal("seeded built a second generator")
		}
		if err := compareDraws(rand.New(rand.NewSource(seed)), r, 100); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestWorkerRNGCountsPlacementAndSweep: a placement pass with a randomized
// primary policy reseeds once per user of the population, and the count
// reaches core.rng_seeded whatever the worker count; a deterministic policy
// reseeds nothing. The sweep's count stays one per (repetition, randomized
// policy, user).
func TestWorkerRNGCountsPlacementAndSweep(t *testing.T) {
	ds := archDataset(t)
	bitmaps := onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 9, 1).Bitmaps()
	seedOf := func(u int) int64 { return int64(mathrand.Mix(5, uint64(u))) }
	for _, tc := range []struct {
		p    replica.Policy
		want int64
	}{
		{replica.Random{}, int64(ds.NumUsers())},
		{replica.MaxAv{}, 0},
	} {
		for _, workers := range []int{1, 3} {
			before := obsRNGSeeded.Value()
			if _, err := placementLoad(ds, bitmaps, tc.p, replica.ConRep, 4, workers, seedOf); err != nil {
				t.Fatal(err)
			}
			if n := obsRNGSeeded.Value() - before; n != tc.want {
				t.Errorf("%s, workers=%d: core.rng_seeded advanced by %d, want %d", tc.p.Name(), workers, n, tc.want)
			}
		}
	}

	cfg := Config{Dataset: testDataset(t), MaxDegree: 3, UserDegree: 10, Repeats: 2, Seed: 3, Workers: 2}
	before := obsRNGSeeded.Value()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	randomized := 0
	for _, p := range replica.DefaultPolicies() {
		if p.Traits().UsesRNG {
			randomized++
		}
	}
	if n, want := obsRNGSeeded.Value()-before, int64(res.Repeats*randomized*res.Users); n != want {
		t.Errorf("sweep advanced core.rng_seeded by %d, want %d", n, want)
	}
}

// FuzzCloneSource lets the mutator pick the seed and the stream length of
// the worker generator as a policy sees it. The generator first runs a
// prefix of another seed's stream, so every input also checks that a reseed
// leaves nothing of it behind. The source's own fuzz target, over mixed call
// sequences, is mathrand's.
func FuzzCloneSource(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var gen workerRNG
		gen.seeded(^seed)
		for range int(draws) % 700 {
			gen.r.Uint64()
		}
		got := gen.seeded(seed)
		if err := compareDraws(rand.New(rand.NewSource(seed)), got, int(draws)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// BenchmarkWorkerRNG times what a sweep pays per randomized (policy, user):
// one reseed and ten Intn(10) draws, with the clone against reseeding a
// math/rand source in place.
func BenchmarkWorkerRNG(b *testing.B) {
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		var gen workerRNG
		var seed int64
		for b.Loop() {
			seed++
			r := gen.seeded(seed)
			for range 10 {
				r.Intn(10)
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		var seed int64
		r := rand.New(rand.NewSource(seed))
		for b.Loop() {
			seed++
			r.Seed(seed)
			for range 10 {
				r.Intn(10)
			}
		}
	})
}
