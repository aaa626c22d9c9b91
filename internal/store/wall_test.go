package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"dosn/internal/vclock"
)

// Property: after any sequence of Add the ordered log reads exactly as the
// map-and-sort log did. The sequence has what replication produces and what
// it should not: shuffled arrival, duplicates, an ID reused with another
// body (the first stored wins), sequence holes, sequence 0, and timestamps
// that run backwards within an author.
func TestQuickWallMatchesMapOracle(t *testing.T) {
	authors := []NodeID{-3, 0, 1, 2, 7}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, oracle := NewWall(1), newMapWall()
		for i, n := 0, rng.Intn(60); i < n; i++ {
			p := Post{
				ID:        PostID{Author: authors[rng.Intn(len(authors))], Seq: uint64(rng.Intn(14))},
				Wall:      1,
				Body:      fmt.Sprint("arrival ", i),
				CreatedAt: int64(rng.Intn(9)) - 4,
			}
			if got, want := w.Add(p), oracle.Add(p); got != want {
				t.Logf("seed %d: Add(%+v) = %v, want %v", seed, p, got, want)
				return false
			}
		}
		if got, want := w.Posts(), oracle.Posts(); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: Posts\n got %v\nwant %v", seed, got, want)
			return false
		}
		if got, want := w.Digest(), oracle.Digest(); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: Digest = %v, want %v", seed, got, want)
			return false
		}
		if w.Len() != oracle.Len() {
			t.Logf("seed %d: Len = %d, want %d", seed, w.Len(), oracle.Len())
			return false
		}
		// Digests of other replicas: authors neither side has seen (9),
		// counters inside holes, at the top and beyond it, and the two ends.
		digests := []vclock.Clock{nil, vclock.New(), w.Digest()}
		for i := 0; i < 6; i++ {
			d := vclock.New()
			for _, a := range append(authors, 9) {
				if rng.Intn(3) > 0 {
					d.Observe(a, uint64(rng.Intn(16)))
				}
			}
			digests = append(digests, d)
		}
		for _, d := range digests {
			if got, want := w.MissingFrom(d), oracle.MissingFrom(d); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d: MissingFrom(%v)\n got %v\nwant %v", seed, d, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// What a wall hands out belongs to the caller: the TCP node encodes a delta
// and the feed merges a wall's posts after the store's lock is released.
func TestWallReadsAreCallerOwned(t *testing.T) {
	w := NewWall(1)
	for seq := uint64(1); seq <= 3; seq++ {
		w.Add(Post{ID: PostID{Author: 2, Seq: seq}, Wall: 1, Body: "kept", CreatedAt: int64(seq)})
	}
	want := w.Posts()

	ps := w.Posts()
	ps[0], ps[2] = ps[2], Post{Body: "scribbled"}
	_ = append(ps[:1], Post{Body: "appended"})
	missing := w.MissingFrom(nil)
	missing[1].Body = "scribbled"
	_ = append(missing[:0], Post{Body: "appended"})
	d := w.Digest()
	d.Observe(2, 99)

	if got := w.Posts(); !reflect.DeepEqual(got, want) {
		t.Errorf("Posts after scribbling on results = %v, want %v", got, want)
	}
	if got := w.MissingFrom(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("MissingFrom after scribbling on results = %v, want %v", got, want)
	}
	if got := w.Digest().Get(2); got != 3 {
		t.Errorf("digest after scribbling on a copy = %d, want 3", got)
	}
}

// One store serves the node's own writes, sync sessions from several peers,
// timeline reads and the periodic snapshot at once; run under -race.
func TestStoreConcurrentUse(t *testing.T) {
	const walls, rounds = 4, 200
	s := New(1)
	for w := 0; w < walls; w++ {
		s.Host(NodeID(w))
	}
	var wg sync.WaitGroup
	run := func(f func(i int, wall NodeID) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i, NodeID(i%walls)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(i int, wall NodeID) error {
		_, err := s.Author(wall, "authored", int64(i))
		return err
	})
	for peer := NodeID(2); peer <= 3; peer++ {
		run(func(i int, wall NodeID) error {
			// Newest first, so every Apply but a wall's first inserts.
			_, err := s.Apply(Post{ID: PostID{Author: peer, Seq: uint64(rounds - i)}, Wall: wall, Body: "applied", CreatedAt: int64(rounds - i)})
			return err
		})
	}
	run(func(i int, wall NodeID) error {
		// A peer's delta: this round's post, the one before it again, and a
		// field write.
		delta := []Post{{ID: PostID{Author: 4, Seq: uint64(i + 1)}, Wall: wall, Body: "merged", CreatedAt: int64(i)}}
		if i >= walls {
			delta = append(delta, Post{ID: PostID{Author: 4, Seq: uint64(i + 1 - walls)}, Wall: wall, Body: "merged", CreatedAt: int64(i - walls)})
		}
		_, err := s.MergeDelta(wall, delta, map[string]Field{"bio": {Value: "v", At: int64(i), Writer: 4}})
		return err
	})
	// A second replica syncing with s both ways, as the simulated runtime does.
	peer := New(5)
	for w := 0; w < walls; w++ {
		peer.Host(NodeID(w))
	}
	run(func(int, NodeID) error {
		s.SyncInto(peer)
		peer.SyncInto(s)
		return nil
	})
	run(func(_ int, wall NodeID) error {
		d, err := s.Digest(wall)
		if err == nil {
			_, _, err = peer.Delta(wall, d)
		}
		return err
	})
	run(func(_ int, wall NodeID) error {
		ps, err := s.Posts(wall)
		for i := 1; i < len(ps) && err == nil; i++ {
			if !rendersBefore(&ps[i-1], &ps[i]) {
				err = fmt.Errorf("wall %d read out of order at %d: %v", wall, i, ps)
			}
		}
		return err
	})
	run(func(i int, wall NodeID) error {
		d, err := s.Digest(wall)
		if err != nil {
			return err
		}
		d[2] /= 2
		_, err = s.MissingFrom(wall, d)
		return err
	})
	run(func(i int, _ NodeID) error {
		if i%10 != 0 {
			return nil
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return err
		}
		_, err := Load(&buf)
		return err
	})
	wg.Wait()
	for w := 0; w < walls; w++ {
		if ps, _ := s.Posts(NodeID(w)); len(ps) != 4*rounds/walls {
			t.Errorf("wall %d holds %d posts, want %d", w, len(ps), 4*rounds/walls)
		}
	}
}
