// Package feed assembles timelines: the "feed of updates on friends'
// profiles" a typical OSN offers (paper §II). It merges the post logs of
// many walls into one reverse-chronological stream.
package feed

import "dosn/internal/store"

// Item is one feed entry.
type Item = store.Post

// key is an item's position in feed order, copied out of the item so a
// comparison reads one small array instead of every wall's.
type key struct {
	at     int64
	seq    uint64
	author int32
	wall   int32
}

func keyOf(it *Item) key {
	return key{at: it.CreatedAt, seq: it.ID.Seq, author: it.ID.Author, wall: it.Wall}
}

// newer reports whether a is strictly newer than b in feed order:
// CreatedAt, then author, then sequence, then wall. Sequence numbers count
// per (author, wall), so the wall is what tells one author's k-th posts on
// two walls apart; with it the order is total over the posts of distinct
// walls, and a merge has exactly one result.
func newer(a, b *key) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	if a.author != b.author {
		return a.author > b.author
	}
	if a.seq != b.seq {
		return a.seq > b.seq
	}
	return a.wall > b.wall
}

// A slot is one source of the merge and one node of its loser tree. The
// tree over k sources has k nodes: leaf j+k (implicit) is source j, node
// n > 0 has children 2n and 2n+1 and holds the source that lost the match
// there, and node 0 holds the overall winner; so one array of k slots
// holds every source's head and the whole tree.
type slot struct {
	head key // the source's newest remaining item
	next int // head's index in its wall; -1 once the source is exhausted
	node int // a source index: this tree node's loser (node 0: the winner)
}

// beats reports whether source a's head comes before source b's in the
// timeline. Every key value is a legal item, so exhaustion is a flag, not a
// sentinel key: an exhausted source loses to every live one.
func beats(a, b *slot) bool {
	if a.next < 0 {
		return false
	}
	if b.next < 0 {
		return true
	}
	return newer(&a.head, &b.head)
}

// play fills the subtree under node n of the tree over s with the losers of
// its matches and returns its winner.
func play(s []slot, n int) int {
	if n >= len(s) {
		return n - len(s)
	}
	a, b := play(s, 2*n), play(s, 2*n+1)
	if beats(&s[b], &s[a]) {
		a, b = b, a
	}
	s[n].node = b
	return a
}

// merge returns the newest n items of the union of walls (each in store
// rendering order, oldest first), newest first, in an array of exactly n.
// n must not exceed the number of items. Wall j is source j, and an empty
// one starts exhausted. Each item costs one replay of its source's
// leaf-to-root path, ⌈log₂ k⌉ comparisons of cached keys for k walls.
func merge(walls [][]Item, n int) []Item {
	out := make([]Item, n)
	if n == 0 {
		return out
	}
	s := make([]slot, len(walls))
	for j, w := range walls {
		if s[j].next = len(w) - 1; s[j].next >= 0 {
			s[j].head = keyOf(&w[s[j].next])
		}
	}
	k := len(s)
	s[0].node = play(s, 1)
	for i := range out {
		win := s[0].node
		ws := &s[win]
		w := walls[win]
		out[i] = w[ws.next]
		if ws.next--; ws.next >= 0 {
			ws.head = keyOf(&w[ws.next])
		}
		for p := (k + win) / 2; p > 0; p /= 2 {
			if l := s[p].node; beats(&s[l], ws) {
				s[p].node, win, ws = win, l, &s[l]
			}
		}
		s[0].node = win
	}
	return out
}

// Merge combines per-wall post slices (each in store rendering order, oldest
// first) into one reverse-chronological timeline, newest first.
func Merge(walls ...[]Item) []Item {
	total := 0
	for _, w := range walls {
		total += len(w)
	}
	return merge(walls, total)
}

// Timeline returns the newest min(limit, n) items of the merged feed across
// every wall st hosts: the node's view of its friends' profiles. It returns
// nil for limit <= 0. Only each wall's newest limit posts can reach the
// page, and the result's capacity is its length.
func Timeline(st *store.Store, limit int) []Item {
	if limit <= 0 {
		return nil
	}
	var walls [][]Item
	total := 0
	for _, w := range st.Walls() {
		if ps, err := st.Posts(w); err == nil {
			ps = ps[max(0, len(ps)-limit):]
			walls = append(walls, ps)
			total += len(ps)
		}
	}
	return merge(walls, min(limit, total))
}
