// Package feed assembles timelines: the "feed of updates on friends'
// profiles" a typical OSN offers (paper §II). It merges the post logs of
// many walls into one reverse-chronological stream.
package feed

import "dosn/internal/store"

// Item is one feed entry.
type Item = store.Post

// older reports whether a is strictly older than b in feed order:
// CreatedAt, then author, then sequence, then wall. Sequence numbers count
// per (author, wall), so the wall is what tells one author's k-th posts on
// two walls apart; with it the order is total over the posts of distinct
// walls, and a merge has exactly one result.
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

// newest returns the head of a non-empty post list in rendering order.
func newest(l []Item) *Item { return &l[len(l)-1] }

// siftDown restores the heap property below node i of h, a max-heap in feed
// order of non-empty post lists keyed by their newest item.
func siftDown(h [][]Item, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && older(newest(h[c]), newest(h[r])) {
			c = r
		}
		if !older(newest(h[i]), newest(h[c])) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Merge combines per-wall post slices (each in store rendering order, oldest
// first) into one reverse-chronological timeline, newest first.
func Merge(walls ...[]Item) []Item {
	h := make([][]Item, 0, len(walls))
	total := 0
	for _, w := range walls {
		if len(w) > 0 {
			h = append(h, w)
			total += len(w)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make([]Item, 0, total)
	for len(h) > 0 {
		top := h[0]
		out = append(out, *newest(top))
		if len(top) > 1 {
			h[0] = top[:len(top)-1]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// Timeline returns the newest min(limit, n) items of the merged feed across
// every wall st hosts: the node's view of its friends' profiles. It returns
// nil for limit <= 0.
func Timeline(st *store.Store, limit int) []Item {
	if limit <= 0 {
		return nil
	}
	var walls [][]Item
	for _, w := range st.Walls() {
		if ps, err := st.Posts(w); err == nil {
			walls = append(walls, ps)
		}
	}
	items := Merge(walls...)
	return items[:min(limit, len(items))]
}
