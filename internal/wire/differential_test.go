package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dosn/internal/store"
)

// randomReplicas draws two replicas, node 1 and node 2, as replication
// leaves them: 2–4 shared walls plus one wall each that the other does not
// host; posts of four authors (both nodes among them) arriving out of order,
// some twice, some under one ID with different content on the two sides;
// each node's own authoring in between; and fields that tie on timestamp and
// writer. The same seed draws the same pair.
func randomReplicas(seed int64) (a, b *store.Store) {
	rng := rand.New(rand.NewSource(seed))
	a, b = store.New(1), store.New(2)
	for w, shared := int32(0), 2+rng.Int31n(3); w < shared; w++ {
		a.Host(10 + w)
		b.Host(10 + w)
	}
	a.Host(20)
	b.Host(21)
	for _, st := range []*store.Store{a, b} {
		for _, wall := range st.Walls() {
			for i, n := 0, rng.Intn(12); i < n; i++ {
				p := store.Post{
					ID:        store.PostID{Author: 1 + rng.Int31n(4), Seq: uint64(1 + rng.Intn(6))},
					Wall:      wall,
					Body:      fmt.Sprint("body ", rng.Intn(2)),
					CreatedAt: int64(rng.Intn(4)),
				}
				for k := 1 + rng.Intn(2); k > 0; k-- {
					if _, err := st.Apply(p); err != nil {
						panic(err)
					}
				}
				if rng.Intn(4) == 0 {
					if _, err := st.Author(wall, "own", int64(rng.Intn(4))); err != nil {
						panic(err)
					}
				}
			}
			for i, n := 0, rng.Intn(3); i < n; i++ {
				f := store.Field{Value: fmt.Sprint(rng.Intn(2)), At: int64(rng.Intn(2)), Writer: rng.Int31n(2)}
				if _, err := st.SetField(wall, fmt.Sprint("f", rng.Intn(2)), f); err != nil {
					panic(err)
				}
			}
		}
	}
	return a, b
}

// Property: the in-process round and the networked round are one
// replication. One copy of a replica pair syncs with SyncInto in both
// directions, the other with one Sync session over loopback; both sides must
// then save to the same bytes.
func TestQuickDifferentialStoreVsWire(t *testing.T) {
	f := func(seed int64) bool {
		a1, b1 := randomReplicas(seed)
		a1.SyncInto(b1)
		b1.SyncInto(a1)

		a2, b2 := randomReplicas(seed)
		srv := NewServer(b2)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		_, err = Sync(addr.String(), a2)
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Logf("seed %d: Sync: %v", seed, err)
			return false
		}
		for _, side := range []struct {
			name         string
			local, wired *store.Store
		}{{"client", a1, a2}, {"server", b1, b2}} {
			if !bytes.Equal(saved(t, side.local), saved(t, side.wired)) {
				t.Logf("seed %d: the %s's store differs between SyncInto and Sync", seed, side.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
