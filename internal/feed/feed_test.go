package feed

import (
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

// randomWalls draws 1–4 walls in store rendering order. Two authors write on
// every wall, each numbering its posts per wall from 1, and timestamps
// repeat: one author's k-th posts on two walls tie on everything but the
// wall, the case sequence numbers alone cannot order.
func randomWalls(rng *rand.Rand) [][]Item {
	walls := make([][]Item, 1+rng.Intn(4))
	for w := range walls {
		var seq [2]uint64
		at := int64(0)
		for i, n := 0, rng.Intn(8); i < n; i++ {
			at += int64(rng.Intn(2))
			a := rng.Intn(2)
			seq[a]++
			walls[w] = append(walls[w], postOn(int32(w), int32(a), seq[a], at))
		}
		slices.SortFunc(walls[w], func(a, b Item) int {
			if older(&a, &b) {
				return -1
			}
			return 1
		})
	}
	return walls
}

// sortedUnion is Merge's oracle: every item, sorted newest first.
func sortedUnion(walls [][]Item) []Item {
	var all []Item
	for _, w := range walls {
		all = append(all, w...)
	}
	slices.SortFunc(all, func(a, b Item) int {
		if older(&b, &a) {
			return -1
		}
		return 1
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

func TestPagePagination(t *testing.T) {
	var wall []Item
	for i := 1; i <= 7; i++ {
		wall = append(wall, post(1, uint64(i), int64(i)))
	}
	timeline := Merge(wall)

	var all []Item
	var c Cursor
	pages := 0
	for {
		items, next, done := Page(timeline, c, 3)
		all = append(all, items...)
		pages++
		if done {
			break
		}
		c = next
	}
	if pages != 3 {
		t.Errorf("pages = %d, want 3 (3+3+1)", pages)
	}
	if len(all) != 7 {
		t.Fatalf("paged items = %d, want 7", len(all))
	}
	for i := 1; i < len(all); i++ {
		if !older(&all[i], &all[i-1]) {
			t.Errorf("pagination out of order at %d: %v after %v", i, all[i], all[i-1])
		}
	}
}

// Sequence numbers count per (author, wall): one author's first post on each
// of two walls, written in the same minute, differ only in the wall. A
// cursor without the wall resumed "strictly older" than both and dropped one.
func TestPageKeepsSameAuthorTiesAcrossWalls(t *testing.T) {
	timeline := Merge([]Item{postOn(10, 1, 1, 5)}, []Item{postOn(11, 1, 1, 5)})
	if len(timeline) != 2 || timeline[0].Wall != 11 || timeline[1].Wall != 10 {
		t.Fatalf("timeline = %v, want wall 11 then wall 10", timeline)
	}
	var paged []Item
	var c Cursor
	for i := 0; i < 3; i++ {
		items, next, done := Page(timeline, c, 1)
		paged = append(paged, items...)
		if done {
			break
		}
		c = next
	}
	if !slices.Equal(paged, timeline) {
		t.Errorf("paged %v, want %v", paged, timeline)
	}
}

func TestPageZeroLimit(t *testing.T) {
	items, _, done := Page([]Item{post(1, 1, 1)}, Cursor{}, 0)
	if len(items) != 0 || done {
		t.Errorf("zero limit = (%v,%v)", items, done)
	}
	_, _, done = Page(nil, Cursor{}, 0)
	if !done {
		t.Error("empty timeline with zero limit is done")
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

func TestQuickPaginationCoversAll(t *testing.T) {
	f := func(seed int64, limitRaw uint8) bool {
		limit := int(limitRaw%5) + 1
		timeline := Merge(randomWalls(rand.New(rand.NewSource(seed)))...)
		var c Cursor
		var paged []Item
		for i := 0; i < 100; i++ { // bound iterations defensively
			items, next, done := Page(timeline, c, limit)
			paged = append(paged, items...)
			if done {
				break
			}
			c = next
		}
		return slices.Equal(paged, timeline)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
