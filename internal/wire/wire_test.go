package wire

import (
	"math"
	"slices"
	"sync"
	"testing"

	"dosn/internal/store"
	"dosn/internal/vclock"
)

func TestDigestRoundTrip(t *testing.T) {
	c := vclock.New()
	c.Observe(3, 7)
	c.Observe(1, 2)
	entries := EncodeDigest(c)
	if len(entries) != 2 || entries[0].Author != 1 || entries[1].Author != 3 {
		t.Errorf("EncodeDigest = %v, want sorted by author", entries)
	}
	back := DecodeDigest(entries)
	if back.Compare(c) != vclock.Equal {
		t.Errorf("round trip = %v, want %v", back, c)
	}
	if len(EncodeDigest(vclock.New())) != 0 {
		t.Error("empty digest should encode empty")
	}
}

// TestEncodeDigestExtremeAuthors: authors 2³¹ apart sort by value. A
// comparator that subtracts them overflows a 32-bit int, and its order then
// follows map iteration, so frames would differ from run to run and from a
// 64-bit peer's.
func TestEncodeDigestExtremeAuthors(t *testing.T) {
	c := vclock.New()
	for _, a := range []int32{math.MaxInt32, 0, math.MinInt32} {
		c.Observe(a, 1)
	}
	want := []DigestEntry{{math.MinInt32, 1}, {0, 1}, {math.MaxInt32, 1}}
	for range 20 {
		if got := EncodeDigest(c); !slices.Equal(got, want) {
			t.Fatalf("EncodeDigest = %v, want %v", got, want)
		}
	}
}

// startServer returns a wired-up server on an ephemeral port.
func startServer(t *testing.T, st *store.Store) string {
	t.Helper()
	srv := NewServer(st)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return addr.String()
}

func TestSyncPullsAndPushes(t *testing.T) {
	const wall = int32(10)
	serverStore := store.New(1)
	serverStore.Host(wall)
	clientStore := store.New(2)
	clientStore.Host(wall)

	if _, err := serverStore.Author(wall, "from-server", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clientStore.Author(wall, "from-client", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := serverStore.SetField(wall, "bio", store.Field{Value: "srv", At: 5, Writer: 1}); err != nil {
		t.Fatal(err)
	}

	addr := startServer(t, serverStore)
	stats, err := Sync(addr, clientStore)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if stats.Pulled != 1 || stats.Pushed != 1 || stats.Walls != 1 {
		t.Errorf("stats = %+v", stats)
	}

	for name, st := range map[string]*store.Store{"server": serverStore, "client": clientStore} {
		ps, err := st.Posts(wall)
		if err != nil || len(ps) != 2 {
			t.Errorf("%s wall = %v (%v)", name, ps, err)
		}
		fs, _ := st.Fields(wall)
		if fs["bio"].Value != "srv" {
			t.Errorf("%s bio = %+v", name, fs["bio"])
		}
	}
}

func TestSyncSkipsUnsharedWalls(t *testing.T) {
	serverStore := store.New(1)
	serverStore.Host(10)
	clientStore := store.New(2)
	clientStore.Host(10)
	clientStore.Host(77) // server does not host this
	if _, err := clientStore.Author(77, "private", 1); err != nil {
		t.Fatal(err)
	}

	addr := startServer(t, serverStore)
	stats, err := Sync(addr, clientStore)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if stats.Walls != 1 {
		t.Errorf("synced %d walls, want 1", stats.Walls)
	}
	if serverStore.Hosts(77) {
		t.Error("server must not acquire unshared walls")
	}
}

func TestSyncIdempotent(t *testing.T) {
	const wall = int32(10)
	serverStore := store.New(1)
	serverStore.Host(wall)
	clientStore := store.New(2)
	clientStore.Host(wall)
	if _, err := serverStore.Author(wall, "x", 1); err != nil {
		t.Fatal(err)
	}

	addr := startServer(t, serverStore)
	if _, err := Sync(addr, clientStore); err != nil {
		t.Fatalf("first Sync: %v", err)
	}
	stats, err := Sync(addr, clientStore)
	if err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	if stats.Pulled != 0 || stats.Pushed != 0 {
		t.Errorf("resync should transfer nothing: %+v", stats)
	}
}

func TestSyncDialError(t *testing.T) {
	st := store.New(1)
	if _, err := Sync("127.0.0.1:1", st); err == nil {
		t.Error("dialing a closed port must fail")
	}
}

func TestConcurrentClients(t *testing.T) {
	const wall = int32(10)
	serverStore := store.New(0)
	serverStore.Host(wall)
	if _, err := serverStore.Author(wall, "seed", 1); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, serverStore)

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	stores := make([]*store.Store, clients)
	for i := 0; i < clients; i++ {
		i := i
		stores[i] = store.New(int32(i + 1))
		stores[i].Host(wall)
		if _, err := stores[i].Author(wall, "c", int64(i)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Sync(addr, stores[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// After one more round every client converges to the full set.
	for i := 0; i < clients; i++ {
		if _, err := Sync(addr, stores[i]); err != nil {
			t.Fatalf("round 2 client %d: %v", i, err)
		}
	}
	want, _ := serverStore.Posts(wall)
	if len(want) != clients+1 {
		t.Fatalf("server has %d posts, want %d", len(want), clients+1)
	}
	for i := 0; i < clients; i++ {
		got, _ := stores[i].Posts(wall)
		if len(got) != len(want) {
			t.Errorf("client %d has %d posts, want %d", i, len(got), len(want))
		}
	}
}

func TestThreeNodeGossipChain(t *testing.T) {
	// a ↔ b ↔ c: c gets a's post without ever talking to a.
	const wall = int32(5)
	a, b, c := store.New(1), store.New(2), store.New(3)
	for _, st := range []*store.Store{a, b, c} {
		st.Host(wall)
	}
	if _, err := a.Author(wall, "origin", 1); err != nil {
		t.Fatal(err)
	}

	addrA := startServer(t, a)
	addrB := startServer(t, b)
	if _, err := Sync(addrA, b); err != nil { // b pulls from a
		t.Fatal(err)
	}
	if _, err := Sync(addrB, c); err != nil { // c pulls from b
		t.Fatal(err)
	}
	ps, _ := c.Posts(wall)
	if len(ps) != 1 || ps[0].Body != "origin" {
		t.Errorf("c wall = %v", ps)
	}
}
