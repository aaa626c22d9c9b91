// Package feed assembles timelines: the "feed of updates on friends'
// profiles" a typical OSN offers (paper §II). It merges the post logs of
// many walls into one reverse-chronological stream.
package feed

import (
	"runtime"

	"dosn/internal/fault"
	"dosn/internal/store"
)

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

// flipped is the key whose feed order is k's reversed: ^ turns every field's
// order around without overflow, so a tree that takes the newest flipped key
// takes the oldest item.
func (k key) flipped() key {
	return key{at: ^k.at, seq: ^k.seq, author: ^k.author, wall: ^k.wall}
}

// newer reports whether head a of source ai comes strictly before head b of
// source bi in the tree's order: CreatedAt, then author, then sequence, then
// wall, newest first, and between equal keys the lower source index.
// Sequence numbers count per (author, wall), so the wall is what tells one
// author's k-th posts on two walls apart; with it the order is total over the
// posts of distinct walls, and a merge has exactly one result. The source
// index orders the copies of a wall passed twice, so the two ends of a
// two-ended merge split even those exactly.
func newer(a, b *key, ai, bi int) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	if a.author != b.author {
		return a.author > b.author
	}
	if a.seq != b.seq {
		return a.seq > b.seq
	}
	if a.wall != b.wall {
		return a.wall > b.wall
	}
	return ai < bi
}

// A slot is one source of the merge and one node of its loser tree. The
// tree over k sources has k nodes: leaf j+k (implicit) is source j, node
// n > 0 has children 2n and 2n+1 and holds the source that lost the match
// there, and node 0 holds the overall winner; so one array of k slots
// holds every source's head and the whole tree.
type slot struct {
	head key // the source's next item's key (flipped in a back tree)
	next int // the head's index, counted from the end the tree reads from; -1 once exhausted
	node int // a source index: this tree node's loser (node 0: the winner)
}

// beats reports whether the head of source ai, slot a, comes before the head
// of source bi, slot b, in the tree's order. Every key value is a legal item, so exhaustion is a
// flag, not a sentinel key: an exhausted source loses to every live one.
func beats(a, b *slot, ai, bi int) bool {
	if a.next < 0 {
		return false
	}
	if b.next < 0 {
		return true
	}
	return newer(&a.head, &b.head, ai, bi)
}

// play fills the subtree under node n of the tree over s with the losers of
// its matches and returns its winner.
func play(s []slot, n int) int {
	if n >= len(s) {
		return n - len(s)
	}
	a, b := play(s, 2*n), play(s, 2*n+1)
	if beats(&s[b], &s[a], b, a) {
		a, b = b, a
	}
	s[n].node = b
	return a
}

// parallelItems is the least merge Merge splits between two trees, one per
// end. Below it the second goroutine's start-up and join cost more than half
// the merge saves (BenchmarkMergeSizes, 64 walls on 2 vCPUs: level at 2,048
// items, about 10 % faster at 4,096 and 25 % at 16,384).
const parallelItems = 4096

// fill runs one loser tree over walls (each in store rendering order, oldest
// first) and writes its first len(out) items into out. The front tree
// (back false) takes items newest first from each wall's newest end and
// fills out from its start; its source j is wall j. The back tree takes them
// oldest first from each wall's oldest end and fills out from its end; its
// source j is wall k-1-j and its keys are flipped, so its order is the front
// tree's reversed, ties between sources included. Each item costs one replay
// of its source's leaf-to-root path, ⌈log₂ k⌉ comparisons of cached keys for
// k walls.
func fill(walls [][]Item, s []slot, out []Item, back bool) {
	k := len(s)
	wall := func(j int) []Item {
		if back {
			return walls[k-1-j]
		}
		return walls[j]
	}
	// headOf caches the key of item ws.next of w, the wall of ws, counted
	// from the end the tree reads from.
	headOf := func(ws *slot, w []Item) {
		if back {
			ws.head = keyOf(&w[len(w)-1-ws.next]).flipped()
		} else {
			ws.head = keyOf(&w[ws.next])
		}
	}
	for j := range s {
		w := wall(j)
		if s[j].next = len(w) - 1; s[j].next >= 0 {
			headOf(&s[j], w)
		}
	}
	s[0].node = play(s, 1)
	for i := range out {
		win := s[0].node
		ws := &s[win]
		w := wall(win)
		if back {
			out[len(out)-1-i] = w[len(w)-1-ws.next]
		} else {
			out[i] = w[ws.next]
		}
		if ws.next--; ws.next >= 0 {
			headOf(ws, w)
		}
		for p := (k + win) / 2; p > 0; p /= 2 {
			if l := s[p].node; beats(&s[l], ws, l, win) {
				s[p].node, win, ws = win, l, &s[l]
			}
		}
		s[0].node = win
	}
}

// merge returns the newest n items of the union of walls (each in store
// rendering order, oldest first), newest first, in an array of exactly n,
// from one front tree. n must not exceed the number of items. Wall j is
// source j, and an empty one starts exhausted.
func merge(walls [][]Item, n int) []Item {
	out := make([]Item, n)
	if n > 0 {
		fill(walls, make([]slot, len(walls)), out, false)
	}
	return out
}

// twoEnded fills out, which must hold exactly every item of walls, with two
// trees at once: the front tree fills the newer half, out[:len(out)/2], on
// the calling goroutine, and the back tree the older half from out's end.
// The trees' orders are each other's reverse and total over (key, source),
// so the halves meet without a split search.
func twoEnded(walls [][]Item, out []Item) {
	if len(out) == 0 {
		return
	}
	k, h := len(walls), len(out)/2
	s := make([]slot, 2*k) // one scratch block for both trees
	fault.Parallel(
		func() { fill(walls, s[:k], out[:h], false) },
		func() { fill(walls, s[k:], out[h:], true) },
	)
}

// Merge combines per-wall post slices (each in store rendering order, oldest
// first) into one reverse-chronological timeline, newest first. From
// parallelItems items up, and with a second processor to run on, it merges
// from both ends at once (twoEnded); the answer is the one tree's.
func Merge(walls ...[]Item) []Item {
	total := 0
	for _, w := range walls {
		total += len(w)
	}
	if total < parallelItems || runtime.GOMAXPROCS(0) < 2 {
		return merge(walls, total)
	}
	out := make([]Item, total)
	twoEnded(walls, out)
	return out
}

// Timeline returns the newest min(limit, n) items of the merged feed across
// every wall st hosts: the node's view of its friends' profiles. It returns
// nil for limit <= 0. Only each wall's newest limit posts can reach the
// page, and the result's capacity is its length. A page is the newest items
// only, so it runs the front tree alone.
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
