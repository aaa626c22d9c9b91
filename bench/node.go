package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dosn/internal/feed"
	"dosn/internal/obs"
	"dosn/internal/store"
	"dosn/internal/vclock"
	"dosn/internal/wire"
)

// nodeWorkload drives the node runtime: two stores that replicate the same
// walls, one of them behind a wire.Server on loopback. Every round writes to
// both sides, synchronizes them over TCP and reads a merged timeline, so
// writes and reads share the store. The simulator layers do no work here.
type nodeWorkload struct {
	seed   int64
	walls  int
	rounds int
	n      int
	bodies []string
	snapA  []byte
	snapB  []byte
}

const (
	nodeA, nodeB     = store.NodeID(1), store.NodeID(2)
	firstWall        = store.NodeID(100)
	initialPerWall   = 200
	authoredPerRound = 4 // posts per wall per side per round
	saveEvery        = 10
)

func newNodeSync(seed int64, quick bool) *nodeWorkload {
	w := &nodeWorkload{seed: seed, walls: 64, rounds: 80, n: 16}
	if quick {
		w.walls, w.rounds, w.n = 8, 10, 2
	}
	return w
}

func (w *nodeWorkload) iterations() int { return w.n }

func (w *nodeWorkload) wall(i int) store.NodeID { return firstWall + store.NodeID(i) }

// setup draws the post stream from the seed and builds the snapshot both
// stores start every iteration from: initialPerWall posts per wall, half
// authored on each side, already exchanged.
func (w *nodeWorkload) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	const letters = "abcdefghijklmnopqrstuvwxyz      "
	w.bodies = make([]string, 1024)
	// The seed draws the text only. Which body has which length (40..199,
	// evenly) is one fixed shuffle for every seed: buffers in store and wire
	// grow by doubling, so a per-seed assignment of lengths to walls moved
	// alloc_mb_per_iter by 2 % between seeds, which the ten-seed spread
	// protocol books as noise against a 1 % bound.
	lengths := rand.New(rand.NewSource(0)).Perm(len(w.bodies))
	for i := range w.bodies {
		b := make([]byte, 40+lengths[i]*160/len(w.bodies))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		w.bodies[i] = string(b)
	}
	a, b := store.New(nodeA), store.New(nodeB)
	for i := 0; i < w.walls; i++ {
		a.Host(w.wall(i))
		b.Host(w.wall(i))
	}
	for k := 0; k < initialPerWall/2; k++ {
		if err := w.authorBoth(a, b, k, int64(k)); err != nil {
			return err
		}
	}
	a.SyncInto(b)
	b.SyncInto(a)
	var err error
	if w.snapA, err = snapshot(a); err != nil {
		return err
	}
	w.snapB, err = snapshot(b)
	return err
}

func snapshot(s *store.Store) ([]byte, error) {
	var buf bytes.Buffer
	err := s.Save(&buf)
	return buf.Bytes(), err
}

// authorBoth writes one post per wall on each side. n numbers the batch, so
// the bodies are a pure function of (seed, n, wall, side).
func (w *nodeWorkload) authorBoth(a, b *store.Store, n int, at int64) error {
	for i := 0; i < w.walls; i++ {
		body := (n*w.walls + i) * 2
		if _, err := a.Author(w.wall(i), w.bodies[body%len(w.bodies)], at); err != nil {
			return err
		}
		if _, err := b.Author(w.wall(i), w.bodies[(body+1)%len(w.bodies)], at); err != nil {
			return err
		}
	}
	return nil
}

// iterate restores both stores and runs the rounds; one operation is one
// sync round.
func (w *nodeWorkload) iterate(t *tracer) (iterResult, error) {
	r := iterResult{ops: w.rounds}
	var a, b *store.Store
	var err error
	t.do("store.load", func() {
		if a, err = store.Load(bytes.NewReader(w.snapA)); err == nil {
			b, err = store.Load(bytes.NewReader(w.snapB))
		}
	})
	if err != nil {
		return r, err
	}
	srv := wire.NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return r, err
	}
	defer srv.Close()

	want := w.walls * authoredPerRound
	var saved []byte
	for round := 0; round < w.rounds; round++ {
		t.do("store.author", func() {
			for k := 0; k < authoredPerRound && err == nil; k++ {
				n := initialPerWall/2 + round*authoredPerRound + k
				err = w.authorBoth(a, b, n, int64(n))
			}
		})
		if err != nil {
			return r, err
		}
		var stats wire.SyncStats
		t.do("wire.sync", func() { stats, err = wire.Sync(addr.String(), a) })
		if err != nil {
			return r, err
		}
		perWall := make([][]feed.Item, w.walls)
		t.do("store.posts_read", func() {
			for i := range perWall {
				if perWall[i], err = a.Posts(w.wall(i)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return r, err
		}
		var timeline []feed.Item
		t.do("feed.merge", func() { timeline = feed.Merge(perWall...) })
		if stats.Pulled != want || stats.Pushed != want || len(timeline) != w.walls*(initialPerWall+2*authoredPerRound*(round+1)) {
			r.failed++
		}
		if (round+1)%saveEvery == 0 {
			t.do("store.save", func() { saved, err = snapshot(a) })
			if err != nil {
				return r, err
			}
		}
	}
	if err := srv.Close(); err != nil {
		return r, err
	}
	final, err := snapshot(b)
	if err != nil {
		return r, err
	}
	for i := 0; i < w.walls; i++ {
		da, errA := a.Digest(w.wall(i))
		db, errB := b.Digest(w.wall(i))
		if errA != nil || errB != nil || da.Compare(db) != vclock.Equal {
			r.failed = r.ops
		}
	}
	r.hash, r.size = sha(append(saved, final...)), len(saved)
	return r, nil
}

func (w *nodeWorkload) traced(t *tracer, m map[string]float64) (iterResult, error) {
	var r iterResult
	var err error
	before := obs.Default.Counters()
	t.do(wholeSpan, func() { r, err = w.iterate(t) })
	if err != nil {
		return r, err
	}
	after := obs.Default.Counters()
	bytesMoved := after["wire.bytes_read"] - before["wire.bytes_read"] + after["wire.bytes_written"] - before["wire.bytes_written"]
	m["wire.bytes_per_post"] = float64(bytesMoved) / float64(2*w.walls*authoredPerRound*w.rounds)
	m["wire.errors"] += float64(after["wire.errors"] - before["wire.errors"])
	m["wire.sync_rounds"] += float64(w.rounds)
	m["store.snapshot_bytes"] = float64(r.size)
	items := 0
	for round := 1; round <= w.rounds; round++ {
		items += w.walls * (initialPerWall + 2*authoredPerRound*round)
	}
	m["feed.items_merged"] = float64(items)
	return r, nil
}

func (w *nodeWorkload) probes(t *tracer, _, m map[string]float64) error {
	syncs := t.each("wire.sync")
	authored := float64(2 * w.walls * authoredPerRound)
	m["wire.sync_round_ms_p50"] = 1e3 * median(syncs)
	if supportsPercentile(len(syncs), 0.95) {
		m["wire.sync_round_ms_p95"] = 1e3 * quantile(syncs, 0.95)
	}
	m["wire.posts_per_s"] = authored * float64(len(syncs)) / sum(syncs)
	m["store.author_ns"] = 1e9 * median(t.each("store.author")) / authored
	m["store.posts_read_us"] = 1e6 * median(t.each("store.posts_read")) / float64(w.walls)
	m["store.save_ms"] = 1e3 * median(t.each("store.save"))
	m["store.load_ms"] = 1e3 * median(t.each("store.load")) / 2
	m["feed.merge_ms"] = 1e3 * median(t.each("feed.merge"))

	// Apply and MissingFrom run inside wire.Sync on both ends, where this
	// file cannot time them; probe them on a store restored from the same
	// snapshot instead.
	s, err := store.Load(bytes.NewReader(w.snapA))
	if err != nil {
		return err
	}
	half := vclock.Clock{nodeA: initialPerWall / 4, nodeB: initialPerWall / 4}
	const passes = 50
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < w.walls; i++ {
			missing, err := s.MissingFrom(w.wall(i), half)
			if err != nil || len(missing) != initialPerWall/2 {
				return fmt.Errorf("MissingFrom returned %d posts (%v), want %d", len(missing), err, initialPerWall/2)
			}
		}
	}
	m["store.missing_from_us"] = perOp(t0, passes*w.walls, time.Microsecond)

	const perWall = 500
	t0 = time.Now()
	for seq := 1; seq <= perWall; seq++ {
		for i := 0; i < w.walls; i++ {
			isNew, err := s.Apply(store.Post{
				ID:        store.PostID{Author: 3, Seq: uint64(seq)},
				Wall:      w.wall(i),
				Body:      w.bodies[(seq+i)%len(w.bodies)],
				CreatedAt: int64(seq),
			})
			if err != nil || !isNew {
				return fmt.Errorf("Apply of a new post: new=%v err=%v", isNew, err)
			}
		}
	}
	m["store.apply_ns"] = perOp(t0, perWall*w.walls, time.Nanosecond)

	x, y := vclock.New(), vclock.New()
	for n := vclock.NodeID(0); n < 64; n++ {
		x.Observe(n, uint64(n)+1)
		y.Observe(n, uint64(64-n))
	}
	const ops = 200_000
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		x.Merge(y)
		if x.Dominates(y) {
			probeSink++
		}
	}
	m["vclock.merge_ns"] = perOp(t0, ops, time.Nanosecond)
	return nil
}
