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
// keeps both, newer wall first.
func TestMergeSameAuthorTiesAcrossWalls(t *testing.T) {
	timeline := Merge([]Item{postOn(10, 1, 1, 5)}, []Item{postOn(11, 1, 1, 5)})
	if len(timeline) != 2 || timeline[0].Wall != 11 || timeline[1].Wall != 10 {
		t.Fatalf("timeline = %v, want wall 11 then wall 10", timeline)
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
// min(limit, n) items of the merge of its walls.
func TestQuickTimelineIsMergePrefix(t *testing.T) {
	f := func(seed int64, limitRaw uint8) bool {
		walls := randomWalls(rand.New(rand.NewSource(seed)))
		limit := int(limitRaw % 40)
		full := Merge(walls...)
		got := Timeline(hostAll(t, walls), limit)
		if limit == 0 {
			return got == nil
		}
		return slices.Equal(got, full[:min(limit, len(full))])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
