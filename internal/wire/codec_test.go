package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dosn/internal/fault"
	"dosn/internal/obs"
	"dosn/internal/store"
)

// strPieces are what random strings are assembled from: plain text, the
// HTML metacharacters encoding/json escapes, control bytes, non-ASCII
// text and, last line, invalid UTF-8, which it replaces.
var strPieces = []string{
	"", "plain", " ", "~", `"`, `\`, "<", ">", "&", "</script>",
	"\x00", "\x01", "\b", "\n", "\t", "\x1f", "\x7f",
	"\u00e9", "\u2028", "\u2029", "\u65e5\u672c", "\U0001F600", "\ufffd", `\u0041`,
	"\xff", "\xc3", "\xed\xa0\x80",
}

func randomString(rng *rand.Rand) string {
	var b strings.Builder
	for i := rng.Intn(4); i > 0; i-- {
		b.WriteString(strPieces[rng.Intn(len(strPieces))])
	}
	return b.String()
}

// randomMessage draws a frame of any shape: each field empty or not, slices
// and maps nil, empty or filled, numbers at the ends of their ranges.
func randomMessage(rng *rand.Rand) Message {
	i32 := func() int32 {
		return []int32{0, 1, -1, 42, math.MinInt32, math.MaxInt32, rng.Int31()}[rng.Intn(7)]
	}
	i64 := func() int64 { return []int64{0, -1, 1 << 40, math.MinInt64, math.MaxInt64}[rng.Intn(5)] }
	u64 := func() uint64 { return []uint64{0, 1, math.MaxUint64, rng.Uint64()}[rng.Intn(4)] }
	types := []MsgType{TypeHello, TypeSync, TypeDelta, TypePush, TypeBye, TypeError, "", "<&>"}
	m := Message{Type: types[rng.Intn(len(types))], From: i32(), Wall: i32(), Msg: randomString(rng)}
	switch rng.Intn(3) {
	case 1:
		m.Digest = []DigestEntry{}
	case 2:
		for i := rng.Intn(4); i >= 0; i-- {
			m.Digest = append(m.Digest, DigestEntry{Author: i32(), Seq: u64()})
		}
	}
	switch rng.Intn(3) {
	case 1:
		m.Posts = []store.Post{}
	case 2:
		for i := rng.Intn(4); i >= 0; i-- {
			m.Posts = append(m.Posts, store.Post{
				ID:   store.PostID{Author: i32(), Seq: u64()},
				Wall: i32(), Body: randomString(rng), CreatedAt: i64(),
			})
		}
	}
	switch rng.Intn(3) {
	case 1:
		m.Fields = map[string]store.Field{}
	case 2:
		m.Fields = map[string]store.Field{}
		for i := rng.Intn(4); i >= 0; i-- {
			m.Fields[randomString(rng)] = store.Field{Value: randomString(rng), At: i64(), Writer: i32()}
		}
	}
	return m
}

// A frame's bytes are encoding/json's: appendMessage writes what Marshal
// writes, plus the Encoder's newline, and the codec reads back what
// encoding/json reads from them.
func TestQuickAppendMessageMatchesEncodingJSON(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMessage(rand.New(rand.NewSource(seed)))
		got := appendMessage(nil, &m)
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Logf("seed %d:\n got %q\nwant %q", seed, got, want)
			return false
		}
		var back, oracle Message
		if err := newCodec(readOnly{bytes.NewReader(got)}).recv(&back); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := json.Unmarshal(got, &oracle); err != nil || !reflect.DeepEqual(back, oracle) {
			t.Logf("seed %d: decoded\n%#v\nwant\n%#v", seed, back, oracle)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A server session answers each frame once its closing brace has arrived:
// frames without a newline, over a connection the client keeps open.
func TestServerAnswersBeforeWriterCloses(t *testing.T) {
	st := store.New(1)
	st.Host(10)
	if _, err := st.Author(10, "hello", 1); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		NewServer(st).serve(server)
	}()
	defer func() {
		client.Close()
		<-done
	}()
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	dec := json.NewDecoder(client)
	for _, step := range []struct {
		frame string
		want  MsgType
	}{
		{`{"type":"hello","from":2}`, TypeHello},
		{`{"type":"sync","from":2,"wall":10}`, TypeDelta},
	} {
		if _, err := client.Write([]byte(step.frame)); err != nil {
			t.Fatal(err)
		}
		var m Message
		if err := dec.Decode(&m); err != nil || m.Type != step.want {
			t.Fatalf("after %s: %+v, %v; want a %s frame", step.frame, m, err, step.want)
		}
	}
}

// An I/O fault anywhere in a session, on either end, fails Sync promptly
// and leaves both stores as replication may: every post on its own wall.
// Each node holds a post on each of walls 10 to 12, of 5 KB but for the
// client's on wall 12, so every delta and the client's first two pushes
// fill a write buffer on their own. The session decodes 13 frames and
// flushes 8 times — the client its hello and syncs, the server its hello
// with the first delta and then each further delta, the client each of its
// first two pushes and then the last push with the bye, the server its bye
// reply — and a fault at any of them fails Sync: the session succeeds only
// on the server's bye reply, which it sends once it has applied the last
// push, so a server that fails reading that push (read 11) or the bye
// (read 12) or writing its reply (write 8) leaves Sync without the reply
// it awaits.
func TestSyncFailsOnInjectedIOFault(t *testing.T) {
	big := strings.Repeat("x", 5<<10)
	pair := func() (server, client *store.Store) {
		server, client = store.New(1), store.New(2)
		for _, st := range []*store.Store{server, client} {
			for _, wall := range []int32{10, 11, 12} {
				st.Host(wall)
				body := big
				if st == client && wall == 12 {
					body = "by 2"
				}
				if _, err := st.Author(wall, body, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		return server, client
	}
	// A zero delay fires on every hit: the clean session's hit counts.
	reads, writes := obs.C("fault.fired.wire.read"), obs.C("fault.fired.wire.write")
	r0, w0 := reads.Value(), writes.Value()
	if err := fault.Enable("wire.read=delay(0s);wire.write=delay(0s)"); err != nil {
		t.Fatal(err)
	}
	server, client := pair()
	_, err := Sync(startServer(t, server), client)
	fault.Disable()
	if err != nil || reads.Value()-r0 != 13 || writes.Value()-w0 != 8 {
		t.Fatalf("clean session: %v, %d frames decoded, %d flushes; want 13 and 8", err, reads.Value()-r0, writes.Value()-w0)
	}

	for _, site := range []struct {
		name string
		hits int
	}{{"wire.read", 13}, {"wire.write", 8}} {
		for hit := 1; hit <= site.hits; hit++ {
			t.Run(fmt.Sprintf("%s=error(%d)", site.name, hit), func(t *testing.T) {
				server, client := pair()
				addr := startServer(t, server)
				fired := obs.C("fault.fired." + site.name)
				before := fired.Value()
				if err := fault.Enable(fmt.Sprintf("%s=error(%d)", site.name, hit)); err != nil {
					t.Fatal(err)
				}
				defer fault.Disable()
				errc := make(chan error, 1)
				go func() {
					_, err := Sync(addr, client)
					errc <- err
				}()
				select {
				case err := <-errc:
					if err == nil {
						t.Fatal("Sync succeeded through an injected fault")
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Sync did not return")
				}
				if n := fired.Value() - before; n != 1 {
					t.Errorf("fault.fired.%s advanced by %d, want 1", site.name, n)
				}
				for _, st := range []*store.Store{server, client} {
					for _, wall := range st.Walls() {
						ps, err := st.Posts(wall)
						if err != nil || len(ps) == 0 {
							t.Fatalf("node %d wall %d: %v, %v", st.Node(), wall, ps, err)
						}
						for _, p := range ps {
							if p.Wall != wall {
								t.Errorf("node %d: post %v of wall %d stored on wall %d", st.Node(), p.ID, p.Wall, wall)
							}
						}
					}
				}
			})
		}
	}
}
