package wire

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dosn/internal/store"
)

// countingConn counts a client's Writes and its round trips: the Reads it
// makes after a Write, the points where it waits on an answer to what it
// sent. Reads in between take what the peer has already sent.
type countingConn struct {
	*net.TCPConn
	writes, trips int
	wrote         bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	c.wrote = true
	return c.TCPConn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	if c.wrote {
		c.trips++
		c.wrote = false
	}
	return c.TCPConn.Read(p)
}

// dialCounted dials addr with a deadline and wraps the connection.
func dialCounted(t *testing.T, addr string, limit time.Duration) *countingConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(limit)); err != nil {
		t.Fatal(err)
	}
	return &countingConn{TCPConn: conn.(*net.TCPConn)}
}

// A session waits on its peer twice however many walls it syncs: once for
// the answers to its hello and syncs, once for the answer to its pushes and
// bye; and it writes twice. A session that asked for one wall at a time
// made a round trip per wall, 66 for 64 walls. Only past syncWindow bytes of
// syncs does it wait once more, per window: 2,500 walls' syncs take two.
func TestSyncRoundTripsPerSession(t *testing.T) {
	for _, tc := range []struct{ walls, trips, writes int }{
		{2, 2, 2},
		{64, 2, 2},
		{2500, 3, -1}, // its pushes leave in Writes of sessionBuf bytes
	} {
		walls := tc.walls
		t.Run(fmt.Sprint(walls, " walls"), func(t *testing.T) {
			server, client := store.New(1), store.New(2)
			for w := range walls {
				wall := int32(100 + w)
				server.Host(wall)
				client.Host(wall)
				for k := range 2 {
					if _, err := server.Author(wall, "news", int64(k)); err != nil {
						t.Fatal(err)
					}
				}
			}
			conn := dialCounted(t, startServer(t, server), 10*time.Second)
			stats, err := syncOver(conn, client)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Walls != walls || stats.Pulled != 2*walls {
				t.Errorf("stats = %+v, want %d walls and %d posts pulled", stats, walls, 2*walls)
			}
			if conn.trips != tc.trips || (tc.writes >= 0 && conn.writes != tc.writes) {
				t.Errorf("%d round trips and %d writes, want %d and %d", conn.trips, conn.writes, tc.trips, tc.writes)
			}
		})
	}
}

// Deltas and pushes of several MB each, far more than the sockets hold in
// flight while a peer is not reading (the client's buffers are pinned at
// 64 KB, so the kernel cannot grow them), still complete: no push is written
// while the server may still be writing deltas, so neither end waits to
// write on one that waits to write too. Each store then saves what the
// in-process round leaves.
func TestSyncLargeDeltasAndPushesComplete(t *testing.T) {
	const walls, perWall, bodyLen = 4, 2000, 1000
	pair := func() (server, client *store.Store) {
		server, client = store.New(1), store.New(2)
		for w := range walls {
			wall := int32(100 + w)
			for _, st := range []*store.Store{server, client} {
				st.Host(wall)
				body := strings.Repeat(fmt.Sprint(st.Node()), bodyLen)
				for k := range perWall {
					if _, err := st.Author(wall, body, int64(k)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return server, client
	}
	server, client := pair()
	conn := dialCounted(t, startServer(t, server), 30*time.Second)
	if conn.SetReadBuffer(64<<10) != nil || conn.SetWriteBuffer(64<<10) != nil {
		t.Fatal("cannot pin the socket buffers")
	}
	stats, err := syncOver(conn, client)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if want := walls * perWall; stats.Pulled != want || stats.Pushed != want {
		t.Errorf("stats = %+v, want %d posts each way", stats, want)
	}
	localServer, localClient := pair()
	localClient.SyncInto(localServer)
	localServer.SyncInto(localClient)
	for _, side := range []struct {
		name         string
		local, wired *store.Store
	}{{"client", localClient, client}, {"server", localServer, server}} {
		if !bytes.Equal(saved(t, side.local), saved(t, side.wired)) {
			t.Errorf("the %s's store differs from the in-process round's", side.name)
		}
	}
}
