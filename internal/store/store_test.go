package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dosn/internal/vclock"
)

func TestWallAddIdempotent(t *testing.T) {
	w := NewWall(1)
	p := Post{ID: PostID{Author: 2, Seq: 1}, Wall: 1, Body: "hi", CreatedAt: 5}
	if !w.Add(p) {
		t.Error("first Add should be new")
	}
	if w.Add(p) {
		t.Error("second Add must be a no-op")
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d, want 1", w.Len())
	}
	if w.Digest().Get(2) != 1 {
		t.Errorf("digest = %v", w.Digest())
	}
}

func TestWallMissingFrom(t *testing.T) {
	w := NewWall(1)
	for seq := uint64(1); seq <= 3; seq++ {
		w.Add(Post{ID: PostID{Author: 2, Seq: seq}, Wall: 1, CreatedAt: int64(seq)})
	}
	w.Add(Post{ID: PostID{Author: 3, Seq: 1}, Wall: 1, CreatedAt: 9})

	d := vclock.New()
	d.Observe(2, 2) // has the first two of author 2, nothing of author 3
	missing := w.MissingFrom(d)
	if len(missing) != 2 {
		t.Fatalf("missing = %v, want 2 posts", missing)
	}
	if missing[0].ID != (PostID{Author: 2, Seq: 3}) || missing[1].ID != (PostID{Author: 3, Seq: 1}) {
		t.Errorf("missing order = %v", missing)
	}
	if got := w.MissingFrom(w.Digest()); len(got) != 0 {
		t.Errorf("nothing should be missing from own digest, got %v", got)
	}
}

func TestWallPostsOrdering(t *testing.T) {
	w := NewWall(1)
	w.Add(Post{ID: PostID{Author: 3, Seq: 1}, Wall: 1, CreatedAt: 10})
	w.Add(Post{ID: PostID{Author: 2, Seq: 1}, Wall: 1, CreatedAt: 10})
	w.Add(Post{ID: PostID{Author: 2, Seq: 2}, Wall: 1, CreatedAt: 3})
	ps := w.Posts()
	if ps[0].CreatedAt != 3 {
		t.Errorf("posts not time-ordered: %v", ps)
	}
	if ps[1].ID.Author != 2 || ps[2].ID.Author != 3 {
		t.Errorf("equal-time posts must order by author: %v", ps)
	}
}

func TestFieldLWW(t *testing.T) {
	w := NewWall(1)
	if !w.SetField("status", Field{Value: "hello", At: 1, Writer: 1}) {
		t.Error("first write should apply")
	}
	if w.SetField("status", Field{Value: "old", At: 0, Writer: 2}) {
		t.Error("older write must lose")
	}
	if !w.SetField("status", Field{Value: "new", At: 2, Writer: 2}) {
		t.Error("newer write must win")
	}
	// Timestamp tie: higher writer wins.
	if !w.SetField("status", Field{Value: "tie", At: 2, Writer: 9}) {
		t.Error("tie should resolve to higher writer")
	}
	f, ok := w.fields["status"]
	if !ok || f.Value != "tie" {
		t.Errorf("field = %+v", f)
	}
	if _, ok := w.fields["missing"]; ok {
		t.Error("missing field should report !ok")
	}
}

func TestStoreAuthorAndApply(t *testing.T) {
	s := New(7)
	s.Host(7)
	p1, err := s.Author(7, "first", 1)
	if err != nil {
		t.Fatalf("Author: %v", err)
	}
	p2, _ := s.Author(7, "second", 2)
	if p1.ID.Seq != 1 || p2.ID.Seq != 2 {
		t.Errorf("sequence numbers = %d,%d", p1.ID.Seq, p2.ID.Seq)
	}
	if _, err := s.Author(99, "nope", 1); err == nil {
		t.Error("authoring on unhosted wall must fail")
	}
	var nh *ErrNotHosted
	_, err = s.Posts(99)
	if !errors.As(err, &nh) || nh.Wall != 99 {
		t.Errorf("err = %v, want ErrNotHosted{99}", err)
	}
}

func TestStoreApplyAdvancesOwnSeq(t *testing.T) {
	s := New(7)
	s.Host(7)
	// A replica returns our own old post (e.g. after data loss).
	if ok, err := s.Apply(Post{ID: PostID{Author: 7, Seq: 5}, Wall: 7, CreatedAt: 1}); err != nil || !ok {
		t.Fatalf("Apply: %v %v", ok, err)
	}
	p, err := s.Author(7, "new", 2)
	if err != nil {
		t.Fatalf("Author: %v", err)
	}
	if p.ID.Seq != 6 {
		t.Errorf("new post seq = %d, want 6 (must not reuse IDs)", p.ID.Seq)
	}
}

func TestSyncIntoTransfersDeltas(t *testing.T) {
	a := New(1)
	b := New(2)
	for _, s := range []*Store{a, b} {
		s.Host(10)
	}
	a.Host(11) // only a hosts wall 11
	if _, err := a.Author(10, "on-ten", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Author(11, "on-eleven", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetField(10, "bio", Field{Value: "x", At: 1, Writer: 1}); err != nil {
		t.Fatal(err)
	}

	n := a.SyncInto(b)
	if n != 1 {
		t.Errorf("transferred = %d, want 1 (wall 11 is not common)", n)
	}
	ps, _ := b.Posts(10)
	if len(ps) != 1 || ps[0].Body != "on-ten" {
		t.Errorf("b posts = %v", ps)
	}
	fs, _ := b.Fields(10)
	if fs["bio"].Value != "x" {
		t.Errorf("b fields = %v", fs)
	}
	// Resync is a no-op.
	if n := a.SyncInto(b); n != 0 {
		t.Errorf("resync transferred %d, want 0", n)
	}
}

func TestBidirectionalSyncConverges(t *testing.T) {
	a := New(1)
	b := New(2)
	a.Host(10)
	b.Host(10)
	if _, err := a.Author(10, "from-a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Author(10, "from-b", 2); err != nil {
		t.Fatal(err)
	}
	a.SyncInto(b)
	b.SyncInto(a)
	pa, _ := a.Posts(10)
	pb, _ := b.Posts(10)
	if len(pa) != 2 || len(pb) != 2 {
		t.Fatalf("walls did not converge: %d vs %d posts", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("post %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

func TestWallsSorted(t *testing.T) {
	s := New(1)
	s.Host(5)
	s.Host(2)
	s.Host(9)
	got := s.Walls()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Errorf("Walls = %v", got)
	}
	if !s.Hosts(5) || s.Hosts(6) {
		t.Error("Hosts mismatch")
	}
}

// Property: any interleaving of syncs over a random post set converges all
// replicas to the same wall content (eventual consistency).
func TestQuickSyncConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const wall = NodeID(100)
		stores := make([]*Store, 3)
		for i := range stores {
			stores[i] = New(NodeID(i))
			stores[i].Host(wall)
		}
		// Random authorship.
		for i := 0; i < 10; i++ {
			s := stores[rng.Intn(len(stores))]
			if _, err := s.Author(wall, "p", int64(i)); err != nil {
				return false
			}
		}
		// Random gossip rounds, then a full round-robin to guarantee
		// delivery.
		for i := 0; i < 5; i++ {
			a, b := rng.Intn(3), rng.Intn(3)
			if a != b {
				stores[a].SyncInto(stores[b])
			}
		}
		for i := range stores {
			for j := range stores {
				if i != j {
					stores[i].SyncInto(stores[j])
				}
			}
		}
		ref, _ := stores[0].Posts(wall)
		for _, s := range stores[1:] {
			ps, _ := s.Posts(wall)
			if len(ps) != len(ref) {
				return false
			}
			for k := range ps {
				if ps[k] != ref[k] {
					return false
				}
			}
		}
		return len(ref) == 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: posts handed over one at a time in any order, between
// authoring and partial syncs among 2–5 stores, still converge: after one
// round of syncs over every ordered pair, every store hosting the wall holds
// every post, the same fields and the same digest. A store that took an
// author's later post first holds it above a gap, and the digest must not
// hide the gap from its peers.
func TestQuickOutOfOrderApplyConverges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const wall = NodeID(100)
		stores := make([]*Store, 2+rng.Intn(4))
		var hosts []*Store
		for i := range stores {
			stores[i] = New(NodeID(i))
			if i == 0 || rng.Intn(4) > 0 {
				stores[i].Host(wall)
				hosts = append(hosts, stores[i])
			}
		}
		var authored []Post
		for step, steps := 0, rng.Intn(40); step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				p, err := hosts[rng.Intn(len(hosts))].Author(wall, fmt.Sprint("post ", step), int64(rng.Intn(20)))
				if err != nil {
					t.Fatal(err)
				}
				authored = append(authored, p)
			case op < 7 && len(authored) > 0:
				if _, err := hosts[rng.Intn(len(hosts))].Apply(authored[rng.Intn(len(authored))]); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				fld := Field{Value: fmt.Sprint("v", step), At: int64(rng.Intn(5)), Writer: NodeID(rng.Intn(len(stores)))}
				if _, err := hosts[rng.Intn(len(hosts))].SetField(wall, fmt.Sprint("f", rng.Intn(3)), fld); err != nil {
					t.Fatal(err)
				}
			default:
				stores[rng.Intn(len(stores))].SyncInto(stores[rng.Intn(len(stores))])
			}
		}
		for _, a := range stores {
			for _, b := range stores {
				if a != b {
					a.SyncInto(b)
				}
			}
		}
		refPosts, _ := hosts[0].Posts(wall)
		refFields, _ := hosts[0].Fields(wall)
		refDigest, _ := hosts[0].Digest(wall)
		if len(refPosts) != len(authored) {
			t.Logf("seed %d: store 0 holds %d posts of %d authored", seed, len(refPosts), len(authored))
			return false
		}
		for _, s := range hosts[1:] {
			ps, _ := s.Posts(wall)
			fs, _ := s.Fields(wall)
			d, _ := s.Digest(wall)
			if !reflect.DeepEqual(ps, refPosts) || !reflect.DeepEqual(fs, refFields) || !reflect.DeepEqual(d, refDigest) {
				t.Logf("seed %d: store %d holds %v, %v, digest %v; store 0 %v, %v, digest %v",
					seed, s.Node(), ps, fs, d, refPosts, refFields, refDigest)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LWW field writes converge regardless of apply order.
func TestQuickLWWConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		writes := make([]Field, 6)
		for i := range writes {
			writes[i] = Field{Value: string(rune('a' + i)), At: int64(rng.Intn(4)), Writer: NodeID(rng.Intn(3))}
		}
		apply := func(order []int) Field {
			w := NewWall(1)
			for _, i := range order {
				w.SetField("f", writes[i])
			}
			return w.fields["f"]
		}
		order1 := rng.Perm(len(writes))
		order2 := rng.Perm(len(writes))
		return apply(order1) == apply(order2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New(7)
	s.Host(7)
	s.Host(10)
	if _, err := s.Author(7, "mine", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Author(10, "on-friend", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Post{ID: PostID{Author: 3, Seq: 4}, Wall: 10, Body: "replicated", CreatedAt: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetField(7, "bio", Field{Value: "x", At: 9, Writer: 7}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Node() != 7 {
		t.Errorf("node = %d", back.Node())
	}
	if got := back.Walls(); len(got) != 2 || got[0] != 7 || got[1] != 10 {
		t.Fatalf("walls = %v", got)
	}
	for _, wall := range []NodeID{7, 10} {
		want, _ := s.Posts(wall)
		got, _ := back.Posts(wall)
		if len(want) != len(got) {
			t.Fatalf("wall %d: %d vs %d posts", wall, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("wall %d post %d: %+v vs %+v", wall, i, got[i], want[i])
			}
		}
	}
	fs, _ := back.Fields(7)
	if fs["bio"].Value != "x" {
		t.Errorf("fields = %v", fs)
	}
	// Authoring after restore must not reuse IDs.
	p, err := back.Author(7, "after-restart", 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID.Seq != 2 {
		t.Errorf("post-restart seq = %d, want 2", p.ID.Seq)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage must fail to load")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"node":1,"walls":[{"owner":2,"posts":[{"id":{"author":1,"seq":1},"wall":99}]}]}`))); err == nil {
		t.Error("mismatched wall IDs must fail to load")
	}
}

// TestSaveLoadRoundTripDHTHost round-trips a store in the configuration a
// DHT architecture produces and the friend-only tests never exercise: the
// node hosts replicas exclusively for owners it has no social tie to (it is
// a key-successor, not a friend, and not a member of its own wall set), the
// post logs carry many foreign authors with gappy sequence numbers, and the
// host has authored posts on a wall it merely replicates. Every digest,
// anti-entropy delta, LWW field and authoring counter must survive
// persistence bit for bit.
func TestSaveLoadRoundTripDHTHost(t *testing.T) {
	host := New(42) // hosts walls 3 and 900; 42 hosts neither its own wall nor a friend's
	host.Host(3)
	host.Host(900)
	// Wall 3: foreign authors with non-contiguous sequence numbers, as
	// a host that is not the authors' friend receives them (later posts
	// can arrive first).
	for _, p := range []Post{
		{ID: PostID{Author: 5, Seq: 2}, Wall: 3, Body: "second", CreatedAt: 20},
		{ID: PostID{Author: 5, Seq: 1}, Wall: 3, Body: "first", CreatedAt: 10},
		{ID: PostID{Author: 11, Seq: 7}, Wall: 3, Body: "gap", CreatedAt: 15},
		{ID: PostID{Author: 3, Seq: 1}, Wall: 3, Body: "owner", CreatedAt: 5},
	} {
		if _, err := host.Apply(p); err != nil {
			t.Fatal(err)
		}
	}
	// The host also authored on a wall it replicates without owning.
	if _, err := host.Author(900, "hosted-comment", 30); err != nil {
		t.Fatal(err)
	}
	if _, err := host.SetField(900, "bio", Field{Value: "dht", At: 40, Writer: 42}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := host.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := back.Walls(); len(got) != 2 || got[0] != 3 || got[1] != 900 {
		t.Fatalf("walls = %v", got)
	}
	for _, wall := range []NodeID{3, 900} {
		wantDigest, _ := host.Digest(wall)
		gotDigest, _ := back.Digest(wall)
		if wantDigest.Compare(gotDigest) != vclock.Equal {
			t.Errorf("wall %d digest %v != %v", wall, gotDigest, wantDigest)
		}
		want, _ := host.Posts(wall)
		got, _ := back.Posts(wall)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("wall %d posts differ:\n%v\n%v", wall, got, want)
		}
		// The restored replica lacks nothing: anti-entropy from the
		// original resends only posts above a gap, all of them duplicates.
		missing, _ := host.MissingFrom(wall, gotDigest)
		if n, err := back.MergeDelta(wall, missing, nil); n != 0 || err != nil {
			t.Errorf("wall %d: restored replica took %d new posts of %v (%v)", wall, n, missing, err)
		}
	}
	fs, _ := back.Fields(900)
	if fs["bio"].Value != "dht" || fs["bio"].Writer != 42 {
		t.Errorf("fields = %v", fs)
	}
	// Authoring on the merely-hosted wall must continue past the restored
	// counter, and applying one's own replicated history must not clash.
	p, err := back.Author(900, "after-restart", 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != (PostID{Author: 42, Seq: 2}) {
		t.Errorf("post-restart ID = %+v, want {42 2}", p.ID)
	}
	// A foreign author's gappy history keeps its digest semantics: seq 7
	// with no 1..6 reports nothing held, and 1..2 held reports 2.
	d, _ := back.Digest(3)
	if d.Get(11) != 0 || d.Get(5) != 2 {
		t.Errorf("digest for authors 11, 5 = %d, %d, want 0, 2", d.Get(11), d.Get(5))
	}
}
