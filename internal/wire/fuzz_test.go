package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"dosn/internal/store"
)

// FuzzServerSession throws arbitrary byte streams at a live server session
// and requires that the server neither panics nor hangs, and that every post
// it stores sits on its own wall. Seeds cover the well-formed handshakes,
// truncated/garbage frames and a push that smuggles a post onto the other
// hosted wall.
func FuzzServerSession(f *testing.F) {
	f.Add(`{"type":"hello","from":2}` + "\n" + `{"type":"bye"}` + "\n")
	f.Add(`{"type":"hello","from":2}` + "\n" + `{"type":"sync","wall":10}` + "\n")
	f.Add(`{"type":"hello"}` + "\n" + `{"type":"push","wall":10,"posts":[{"id":{"author":1,"seq":1},"wall":10}]}` + "\n")
	f.Add(`{"type":"hello","from":2}` + "\n" + `{"type":"push","wall":10,"posts":[{"id":{"author":2,"seq":1},"wall":10},{"id":{"author":2,"seq":2},"wall":11}]}` + "\n" + `{"type":"sync","wall":11}` + "\n")
	f.Add("not json at all\n")
	f.Add(`{"type":"sync","wall":10}` + "\n") // missing hello
	f.Add(`{"type":"hello","from":2}` + "\n" + `{"type":"what"}` + "\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		st := store.New(1)
		for _, wall := range []int32{10, 11} {
			st.Host(wall)
			if _, err := st.Author(wall, "seed", 1); err != nil {
				t.Fatal(err)
			}
		}
		srv := NewServer(st)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write([]byte(input)); err == nil {
			// Drain whatever the server answers; it must terminate.
			dec := json.NewDecoder(bufio.NewReader(conn))
			for i := 0; i < 16; i++ {
				var m Message
				if dec.Decode(&m) != nil {
					break
				}
			}
		}
		_ = conn.Close()
		// The store must stay consistent regardless of the garbage.
		for _, wall := range st.Walls() {
			ps, err := st.Posts(wall)
			if err != nil || len(ps) < 1 {
				t.Fatalf("store corrupted: %v %v", ps, err)
			}
			for _, p := range ps {
				if p.Wall != wall {
					t.Fatalf("post %v of wall %d stored on wall %d", p.ID, p.Wall, wall)
				}
			}
		}
	})
}

// FuzzMessageDecode ensures arbitrary JSON never panics the frame decoder
// and that digests survive an encode/decode cycle.
func FuzzMessageDecode(f *testing.F) {
	f.Add(`{"type":"delta","digest":[{"author":1,"seq":2}]}`)
	f.Add(`{"digest":[{"author":-5,"seq":18446744073709551615}]}`)
	f.Add(`{}`)
	f.Add(`[1,2,3]`)
	f.Fuzz(func(t *testing.T, in string) {
		var m Message
		if err := json.NewDecoder(strings.NewReader(in)).Decode(&m); err != nil {
			return
		}
		c := DecodeDigest(m.Digest)
		back := DecodeDigest(EncodeDigest(c))
		if !c.Dominates(back) || !back.Dominates(c) {
			t.Fatalf("digest round trip: %v vs %v", c, back)
		}
	})
}
