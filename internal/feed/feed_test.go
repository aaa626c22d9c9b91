package feed

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dosn/internal/store"
)

func post(author int32, seq uint64, at int64) Item {
	return Item{ID: store.PostID{Author: author, Seq: seq}, CreatedAt: at}
}

func postOn(wall, author int32, seq uint64, at int64) Item {
	it := post(author, seq, at)
	it.Wall = wall
	return it
}

// older is the feed order on items, the oracle's side of merge's newer:
// a is strictly older than b by CreatedAt, then author, then sequence, then
// wall.
func older(a, b *Item) bool {
	if a.CreatedAt != b.CreatedAt {
		return a.CreatedAt < b.CreatedAt
	}
	if a.ID.Author != b.ID.Author {
		return a.ID.Author < b.ID.Author
	}
	if a.ID.Seq != b.ID.Seq {
		return a.ID.Seq < b.ID.Seq
	}
	return a.Wall < b.Wall
}

// Palettes for decodeWalls' keys: small values, so keys tie often within
// and across walls, and each field's extremes, so no key value can stand in
// for an exhausted source.
var (
	atPalette     = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	authorPalette = []int32{math.MinInt32, 0, 1, math.MaxInt32}
	seqPalette    = []uint64{0, 1, 2, math.MaxUint64}
)

// decodeWalls reads walls in store rendering order from data. The first
// byte gives the wall count (0–70) and each following 3-byte group one item:
// its wall, its CreatedAt and its (author, seq), each from a palette. Walls
// are numbered from MinInt32 to MaxInt32 at the ends; a wall no item names
// stays empty, and an ID that repeats on a wall keeps its first item, as a
// store would.
func decodeWalls(data []byte) [][]Item {
	if len(data) == 0 {
		return nil
	}
	walls := make([][]Item, int(data[0])%71)
	if len(walls) == 0 {
		return walls
	}
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		w := int(b[0]) % len(walls)
		id := wallID(w, len(walls))
		it := postOn(id, authorPalette[b[2]%4], seqPalette[b[2]/4%4], atPalette[b[1]%8])
		if !slices.ContainsFunc(walls[w], func(p Item) bool { return p.ID == it.ID }) {
			walls[w] = append(walls[w], it)
		}
	}
	for _, w := range walls {
		slices.SortFunc(w, func(a, b Item) int {
			if older(&a, &b) {
				return -1
			}
			return 1
		})
	}
	return walls
}

// wallID names wall w of n: MinInt32 first, MaxInt32 last, w between.
func wallID(w, n int) int32 {
	switch w {
	case 0:
		return math.MinInt32
	case n - 1:
		return math.MaxInt32
	}
	return int32(w)
}

// randomWalls draws 0–70 walls of about 3 items each on average, so a tree
// of any shape up to 70 leaves, a single wall, and empty walls between full
// ones all occur.
func randomWalls(rng *rand.Rand) [][]Item {
	n := rng.Intn(71)
	data := make([]byte, 1+3*rng.Intn(6*n+1))
	rng.Read(data)
	data[0] = byte(n)
	return decodeWalls(data)
}

// sortedUnion is Merge's oracle: every item, sorted newest first, and items
// of equal keys (a wall passed twice) in the order of their walls.
func sortedUnion(walls [][]Item) []Item {
	var all []Item
	for _, w := range walls {
		all = append(all, w...)
	}
	slices.SortStableFunc(all, func(a, b Item) int {
		switch {
		case older(&b, &a):
			return -1
		case older(&a, &b):
			return 1
		}
		return 0
	})
	return all
}

func TestMergeNewestFirst(t *testing.T) {
	wallA := []Item{post(1, 1, 10), post(1, 2, 30)} // oldest first
	wallB := []Item{post(2, 1, 20), post(2, 2, 40)}
	got := Merge(wallA, wallB)
	wantTimes := []int64{40, 30, 20, 10}
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i, w := range wantTimes {
		if got[i].CreatedAt != w {
			t.Errorf("item %d at %d, want %d", i, got[i].CreatedAt, w)
		}
	}
}

func TestMergeStableOnTies(t *testing.T) {
	wallA := []Item{post(1, 1, 10)}
	wallB := []Item{post(2, 1, 10)}
	got := Merge(wallA, wallB)
	// Equal times order by author descending in a newest-first feed
	// (total feed order reversed).
	if got[0].ID.Author != 2 || got[1].ID.Author != 1 {
		t.Errorf("tie order = %v", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(); len(got) != 0 {
		t.Errorf("Merge() = %v", got)
	}
	if got := Merge(nil, nil); len(got) != 0 {
		t.Errorf("Merge(nil,nil) = %v", got)
	}
	one := []Item{post(1, 1, 5)}
	if got := Merge(one, nil); len(got) != 1 {
		t.Errorf("Merge(one,nil) = %v", got)
	}
}

// hostAll returns a store that hosts every wall the posts name and holds
// every post.
func hostAll(t *testing.T, walls [][]Item) *store.Store {
	t.Helper()
	st := store.New(99)
	for _, w := range walls {
		for _, p := range w {
			st.Host(p.Wall)
			if _, err := st.Apply(p); err != nil {
				t.Fatalf("Apply(%v): %v", p, err)
			}
		}
	}
	return st
}

// TestPagePagination: a timeline page of limit items is the newest
// min(limit, n) items of the merged feed, newest first.
func TestPagePagination(t *testing.T) {
	var wall []Item
	for i := 1; i <= 7; i++ {
		wall = append(wall, postOn(3, 1, uint64(i), int64(i)))
	}
	st := hostAll(t, [][]Item{wall})
	full := Merge(wall)
	for _, tc := range []struct{ limit, want int }{
		{1, 1}, {3, 3}, {7, 7}, {100, 7},
	} {
		got := Timeline(st, tc.limit)
		if !slices.Equal(got, full[:tc.want]) {
			t.Errorf("Timeline(limit %d) = %v, want the newest %d of %v", tc.limit, got, tc.want, full)
		}
		for i := 1; i < len(got); i++ {
			if !older(&got[i], &got[i-1]) {
				t.Errorf("Timeline(limit %d) out of order at %d: %v after %v", tc.limit, i, got[i], got[i-1])
			}
		}
	}
}

// TestPageZeroLimit: a page of limit <= 0 is nil, and an empty store's page
// is empty.
func TestPageZeroLimit(t *testing.T) {
	st := hostAll(t, [][]Item{{postOn(3, 1, 1, 1)}})
	for _, limit := range []int{-1, 0} {
		if got := Timeline(st, limit); got != nil {
			t.Errorf("Timeline(limit %d) = %#v, want nil", limit, got)
		}
	}
	if got := Timeline(store.New(1), 5); len(got) != 0 {
		t.Errorf("Timeline of an empty store = %v", got)
	}
}

// Sequence numbers count per (author, wall): one author's first post on each
// of two walls, written in the same minute, differ only in the wall. Merge
// keeps both, newer wall first, on one tree and on two.
func TestMergeSameAuthorTiesAcrossWalls(t *testing.T) {
	walls := [][]Item{{postOn(10, 1, 1, 5)}, {postOn(11, 1, 1, 5)}}
	for _, timeline := range [][]Item{Merge(walls...), twoEndedMerge(walls)} {
		if len(timeline) != 2 || timeline[0].Wall != 11 || timeline[1].Wall != 10 {
			t.Fatalf("timeline = %v, want wall 11 then wall 10", timeline)
		}
	}
}

func TestQuickMergeMatchesSortedUnion(t *testing.T) {
	f := func(seed int64) bool {
		walls := randomWalls(rand.New(rand.NewSource(seed)))
		return slices.Equal(Merge(walls...), sortedUnion(walls))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickTimelineIsMergePrefix: a store's timeline is the newest
// min(limit, n) items of the merge of its walls, in an array of exactly
// that many, so a short page keeps no longer merge alive.
func TestQuickTimelineIsMergePrefix(t *testing.T) {
	f := func(seed int64, limitRaw uint8) bool {
		walls := randomWalls(rand.New(rand.NewSource(seed)))
		limit := int(limitRaw % 40)
		full := Merge(walls...)
		got := Timeline(hostAll(t, walls), limit)
		if limit == 0 {
			return got == nil
		}
		n := min(limit, len(full))
		return slices.Equal(got, full[:n]) && cap(got) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzMerge: walls decoded from any bytes merge to their sorted union, on
// one tree and on two.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 0, 7, 15})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 2, 7, 63, 1, 7, 63})
	f.Add([]byte{70, 69, 4, 5, 0, 4, 5, 35, 1, 1, 64, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		walls := decodeWalls(data)
		want := sortedUnion(walls)
		if got := Merge(walls...); !slices.Equal(got, want) {
			t.Fatalf("Merge = %v, want %v", got, want)
		}
		if got := twoEndedMerge(walls); !slices.Equal(got, want) {
			t.Fatalf("two-ended merge = %v, want %v", got, want)
		}
	})
}

// TestMergeAllocatesAnswerAndScratch: a merge allocates its answer and one
// scratch block, the sources' heads and the tree over them.
func TestMergeAllocatesAnswerAndScratch(t *testing.T) {
	walls := make([][]Item, 9)
	for w := range walls {
		for i := range 5 {
			walls[w] = append(walls[w], postOn(int32(w), 1, uint64(i+1), int64(i)))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { mergeSink = Merge(walls...) }); allocs > 2 {
		t.Errorf("Merge allocates %v times, want at most 2", allocs)
	}
}

// straddlingWalls draws 1–70 walls holding, in all, a total within 40 items
// of parallelItems on either side, odd or even: some walls empty, one wall
// sometimes holding everything, and now and then one wall passed twice, the
// second time with other bodies, so which copy lands where shows. Keys tie
// often: a few authors, a few dozen minutes.
func straddlingWalls(rng *rand.Rand) [][]Item {
	walls := make([][]Item, 1+rng.Intn(70))
	total := parallelItems - 40 + rng.Intn(81)
	one := rng.Intn(4) == 0 // every item on one wall
	seq := make(map[[2]int32]uint64)
	for range total {
		w := rng.Intn(len(walls))
		if one || w%5 == 1 {
			w = 0 // walls 1, 6, 11, ... stay empty
		}
		id := wallID(w, len(walls))
		author := int32(rng.Intn(3))
		seq[[2]int32{id, author}]++
		walls[w] = append(walls[w], postOn(id, author, seq[[2]int32{id, author}], int64(rng.Intn(40))))
	}
	for _, w := range walls {
		slices.SortFunc(w, func(a, b Item) int {
			if older(&a, &b) {
				return -1
			}
			return 1
		})
	}
	if rng.Intn(4) == 0 {
		walls = append(walls, twin(walls[rng.Intn(len(walls))]))
	}
	return walls
}

// twin is wall w passed again under the same keys, every body changed.
func twin(w []Item) []Item {
	w = slices.Clone(w)
	for i := range w {
		w[i].Body += " again"
	}
	return w
}

// TestQuickTwoEndedMergeMatchesSerial: on totals that straddle
// parallelItems, Merge — two trees at once from the threshold up — equals
// the one serial tree and the sorted union, a wall passed twice included.
func TestQuickTwoEndedMergeMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		walls := straddlingWalls(rand.New(rand.NewSource(seed)))
		total := 0
		for _, w := range walls {
			total += len(w)
		}
		got := Merge(walls...)
		return slices.Equal(got, merge(walls, total)) && slices.Equal(got, sortedUnion(walls))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// twoEndedMerge is Merge forced onto two trees whatever the size.
func twoEndedMerge(walls [][]Item) []Item {
	total := 0
	for _, w := range walls {
		total += len(w)
	}
	out := make([]Item, total)
	twoEnded(walls, out)
	return out
}

// TestQuickTwoEndedMergeSmallSplits: two trees over small inputs
// (randomWalls: 0–70 walls, empty ones among them, keys at their extremes),
// a wall passed twice among them, still meet exactly.
func TestQuickTwoEndedMergeSmallSplits(t *testing.T) {
	f := func(seed int64, twice bool) bool {
		walls := randomWalls(rand.New(rand.NewSource(seed)))
		if twice && len(walls) > 0 {
			walls = append(walls, twin(walls[len(walls)/2]))
		}
		return slices.Equal(twoEndedMerge(walls), sortedUnion(walls))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
