package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func saved(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomDelta draws what a peer can send for one wall: posts of 1–3 authors
// (the receiving node among them, so its authoring counter moves) out of
// order, some twice, some the receiver already holds, and fields that tie
// on timestamp and writer.
func randomDelta(rng *rand.Rand, wall NodeID) ([]Post, map[string]Field) {
	authors := []NodeID{1, 2, 3}[:1+rng.Intn(3)]
	var posts []Post
	for i, n := 0, rng.Intn(24); i < n; i++ {
		p := Post{
			ID:        PostID{Author: authors[rng.Intn(len(authors))], Seq: uint64(1 + rng.Intn(10))},
			Wall:      wall,
			Body:      fmt.Sprint("body ", rng.Intn(3)),
			CreatedAt: int64(rng.Intn(5)),
		}
		posts = append(posts, p)
		if rng.Intn(4) == 0 {
			posts = append(posts, p)
		}
	}
	fields := make(map[string]Field)
	for i, n := 0, rng.Intn(4); i < n; i++ {
		fields[fmt.Sprint("f", rng.Intn(3))] = Field{Value: fmt.Sprint(rng.Intn(2)), At: int64(rng.Intn(2)), Writer: NodeID(rng.Intn(2))}
	}
	return posts, fields
}

// Property: merging a well-formed delta is applying its posts one by one and
// its fields one by one — the same stored bytes, the same posts reported new,
// in the order they were given.
func TestQuickMergeDeltaMatchesApply(t *testing.T) {
	const wall = NodeID(10)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Both stores start from the same state: node 2 authored a post and
		// already holds part of what the delta brings. The map oracle, which
		// shares no code with the store, follows the posts.
		ref, got, oracle := New(2), New(2), newMapWall()
		held, heldFields := randomDelta(rng, wall)
		for _, s := range []*Store{ref, got} {
			s.Host(wall)
			if _, err := s.Author(wall, "own", 3); err != nil {
				t.Fatal(err)
			}
			for _, p := range held {
				if _, err := s.Apply(p); err != nil {
					t.Fatal(err)
				}
			}
			for name, f := range heldFields {
				if _, err := s.SetField(wall, name, f); err != nil {
					t.Fatal(err)
				}
			}
		}
		start, err := ref.Posts(wall)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range start {
			oracle.Add(p)
		}
		posts, fields := randomDelta(rng, wall)

		var wantNew []Post
		for _, p := range posts {
			isNew, err := ref.Apply(p)
			if err != nil {
				t.Fatal(err)
			}
			if isNew != oracle.Add(p) {
				t.Fatalf("seed %d: Apply(%v) = %v disagrees with the map oracle", seed, p.ID, isNew)
			}
			if isNew {
				wantNew = append(wantNew, p)
			}
		}
		for name, f := range fields {
			if _, err := ref.SetField(wall, name, f); err != nil {
				t.Fatal(err)
			}
		}

		n, err := got.MergeDelta(wall, posts, fields)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(wantNew) || !slices.Equal(posts[:n], wantNew) {
			t.Logf("seed %d: MergeDelta reported %d new %v, Apply %v", seed, n, posts[:n], wantNew)
			return false
		}
		if !bytes.Equal(saved(t, got), saved(t, ref)) {
			t.Logf("seed %d: stores differ after merge", seed)
			return false
		}
		ps, err := got.Posts(wall)
		return err == nil && slices.Equal(ps, oracle.Posts())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A delta holding one post of another wall, wherever it sits, is refused
// whole: nothing stored moves, not even the delta's valid posts or fields,
// and the error names both walls.
func TestMergeDeltaRejectsForeignPostWhole(t *testing.T) {
	s := New(1)
	s.Host(10)
	s.Host(11)
	if _, err := s.Author(10, "kept", 1); err != nil {
		t.Fatal(err)
	}
	before := saved(t, s)
	const size = 4
	for at := 0; at < size; at++ {
		var posts []Post
		for i := 0; i < size; i++ {
			posts = append(posts, Post{ID: PostID{Author: 2, Seq: uint64(i + 1)}, Wall: 10, Body: "valid"})
		}
		posts[at].Wall = 11
		given := append([]Post(nil), posts...)
		n, err := s.MergeDelta(10, posts, map[string]Field{"bio": {Value: "new", At: 9}})
		if err == nil || n != 0 {
			t.Fatalf("foreign post at %d: MergeDelta = %d, %v; want an error", at, n, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "wall 10") || !strings.Contains(msg, "wall 11") {
			t.Errorf("error %q does not name both walls", msg)
		}
		if !slices.Equal(posts, given) {
			t.Errorf("foreign post at %d: the rejected delta was reordered", at)
		}
		if !bytes.Equal(saved(t, s), before) {
			t.Fatalf("foreign post at %d: the store changed", at)
		}
	}
}

// Re-merging what a replica already holds — the common anti-entropy round
// once replicas agree — allocates nothing.
func TestMergeDeltaWarmAllocatesNothing(t *testing.T) {
	s := New(1)
	s.Host(10)
	var posts []Post
	for seq := uint64(1); seq <= 32; seq++ {
		posts = append(posts, Post{ID: PostID{Author: NodeID(seq % 3), Seq: seq}, Wall: 10, Body: "b", CreatedAt: int64(seq % 5)})
	}
	fields := map[string]Field{"bio": {Value: "x", At: 1, Writer: 1}}
	if _, err := s.MergeDelta(10, posts, fields); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := s.MergeDelta(10, posts, fields); n != 0 || err != nil {
			t.Fatalf("re-merge = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed MergeDelta allocates %v times per call, want 0", allocs)
	}
}
