package harness

import (
	"math"
	"testing"

	"dosn/internal/dht"
	"dosn/internal/mathrand"
	"dosn/internal/replica"
)

// TestPinnedSeedIdentities pins, against literal values, the bytes every
// seed of a run is hashed from and the seeds and ring points derived from
// them. A refactor of the key strings, the string hash or the splitmix64
// chain that moves any of them moves every manifest and golden, so it fails
// here first and names the value that moved.
func TestPinnedSeedIdentities(t *testing.T) {
	fb := DatasetSpec{Name: "facebook", Users: 2000, Seed: 1}
	tw := DatasetSpec{Name: "twitter", Users: 2000, Seed: 2}
	keys := []struct{ got, want string }{
		{Sporadic().key(), "sporadic/0/1200/0/0"},
		{ModelSpec{Kind: "sporadic", SessionSeconds: 600}.key(), "sporadic/0/600/0/0"},
		{RandomLength().key(), "random/0/0/2/8"},
		{FixedLength(2).key(), "fixed/2/0/0/0"},
		{FixedLength(8).key(), "fixed/8/0/0/0"},
		{fb.key(), "facebook/2000/1/10"},
		{tw.key(), "twitter/2000/2/10"},
		{CellSpec{Dataset: fb, Model: Sporadic(), Mode: replica.ConRep, Arch: dht.ArchFriendReplica}.canonicalKey(),
			"facebook/2000/1/10|sporadic/0/1200/0/0|ConRep"},
		{CellSpec{Dataset: fb, Model: Sporadic(), Mode: replica.UnconRep, Arch: dht.ArchRandomDHT}.canonicalKey(),
			"facebook/2000/1/10|sporadic/0/1200/0/0|UnconRep|RandomDHT|32"},
	}
	for _, k := range keys {
		if k.got != k.want {
			t.Errorf("key %q, want %q", k.got, k.want)
		}
	}

	id := tableID{Dataset: fb, Model: RandomLength(), RootSeed: 42}
	for rep, want := range []int64{-6930776476634534192, -6930775377122905981, -6930774277611277770} {
		if got := id.seed(rep); got != want {
			t.Errorf("tableID.seed(%d) = %d, want %d", rep, got, want)
		}
	}

	spec := PaperMatrix(13884)
	cells := spec.Cells()
	for _, c := range []struct {
		index int
		key   string
		seed  int64
	}{
		{0, "facebook/13884/1/10|sporadic/0/1200/0/0|ConRep", -3660882423384449611},
		{3, "facebook/13884/1/10|random/0/0/2/8|UnconRep", 8530544908072128967},
	} {
		cell := cells[c.index]
		if got := cell.canonicalKey(); got != c.key {
			t.Errorf("cell %d key %q, want %q", c.index, got, c.key)
		}
		if got := spec.CellSeed(cell); got != c.seed {
			t.Errorf("cell %d seed %d, want %d", c.index, got, c.seed)
		}
	}

	// The per-repetition and per-user seeds of core: an int64 seed enters
	// the chain as its two's-complement bits and leaves as them.
	for _, m := range []struct {
		parts []uint64
		want  int64
	}{
		{nil, -7046029254386353131},
		{[]uint64{0}, 7960286522194355700},
		{[]uint64{1, 2, 3}, -3240866271010122907},
		{[]uint64{math.MaxUint64, 42}, 7359890137405044517},
		{[]uint64{42, 41, 7}, 6629370668602633889},
	} {
		if got := int64(mathrand.Mix(m.parts...)); got != m.want {
			t.Errorf("Mix(%v) = %d, want %d", m.parts, got, m.want)
		}
	}
	if got := mathrand.Unit(mathrand.Mix(1, 2, 3)); got != 0.8243122874117914 {
		t.Errorf("Unit(Mix(1, 2, 3)) = %v, want 0.8243122874117914", got)
	}
	if got := mathrand.HashString("core.sweep-chunk"); got != 17919091517680708708 {
		t.Errorf("HashString(core.sweep-chunk) = %d, want 17919091517680708708", got)
	}

	ring, err := dht.BuildRing(100, dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for u, want := range map[int32]uint64{0: 2412473534, 1: 1142833066, 99: 2881947593} {
		if got := ring.Key(u); got != want {
			t.Errorf("Ring.Key(%d) = %d, want %d", u, got, want)
		}
	}
}
