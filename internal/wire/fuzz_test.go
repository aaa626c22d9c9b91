package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
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
	// A frame the parser declines mid-session (an unknown key): it and every
	// later frame are read by encoding/json.
	f.Add(`{"type":"hello","from":2}` + "\n" + `{"type":"sync","wall":10,"x":1}` + "\n" + `{"type":"sync","wall":11}` + "\n" + `{"type":"bye"}` + "\n")
	// Frames without a trailing newline: each is answered once its closing
	// brace has arrived.
	f.Add(`{"type":"hello","from":2}{"type":"sync","wall":10}{"type":"push","wall":11,"posts":[{"id":{"author":2,"seq":1},"wall":11}]}`)
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
			// End the input: the server reads EOF after the last frame
			// instead of waiting out the deadline for another.
			_ = conn.(*net.TCPConn).CloseWrite()
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

// msgSeeds are frames for the decode differential: what sessions send, and
// what the parser leaves to encoding/json or must refuse itself.
var msgSeeds = []string{
	`{"type":"delta","digest":[{"author":1,"seq":2}]}`,
	`{"digest":[{"author":-5,"seq":18446744073709551615}]}`,
	`{}`,
	`[1,2,3]`,
	`{"type":"push","from":2,"wall":10,"posts":[{"id":{"author":2,"seq":1},"wall":10,"body":"a <b> & \u00e9","createdAt":-9223372036854775808}],"fields":{"bio":{"value":"v","at":3,"writer":2},"\u0062":{"value":"w"}}}` + "\n",
	`{"type":"hello"}{"type":"bye"}`,
	` {"type" : "sync" , "wall" :10 ,"digest" : [ ] }` + "\r\n\t",
	`{"type":"delta","posts":[],"fields":{},"digest":null,"msg":""}`,
	`{"type":"delta","posts":[{}],"fields":{"a":null}}`,
	`{"Type":"hello"}`,
	`{"TYPE":"hello","type":"bye"}`,
	`{"ty\u0070e":"hello"}`,
	`{"type":"hello","type":"bye"}`,
	`{"fields":{"a":{"value":"1"},"a":{"at":2}}}`,
	`{"type":null,"from":null}`,
	`{"from":1.0}`,
	`{"from":1e1}`,
	`{"from":-0}`,
	`{"from":01}`,
	`{"from":2147483648}`,
	`{"from":-2147483649}`,
	`{"digest":[{"seq":-1}]}`,
	`{"digest":[{"seq":18446744073709551616}]}`,
	`{"type":5}`,
	`{"type":"a\x01b"}`,
	`{"msg":"\ud800\udc00\ud800"}`,
	"{\"msg\":\"\xff\xfe\"}",
	`{"msg":"\q"}`,
	`{"type":"hello"`,
	`{"type":"hello",}`,
	`{"posts":[1,]}`,
	`{"type":"hello"}x{"type":"bye"}`,
	`nul`,
	`{"x":[{"y":[null,true,false,1.5e-3,"s"]}],"type":"hello"}`,
}

// FuzzMessageDecode holds the session codec to encoding/json's Decoder on
// arbitrary byte streams: frame by frame, the same Message (nil and empty
// told apart) and the same error text or none, whether the stream arrives in
// one read or a byte at a time. Digests survive an encode/decode cycle.
func FuzzMessageDecode(f *testing.F) {
	for _, s := range msgSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, r := range []io.Reader{strings.NewReader(in), iotest.OneByteReader(strings.NewReader(in))} {
			c := newCodec(readOnly{r})
			dec := json.NewDecoder(strings.NewReader(in))
			for step := 0; step < 64; step++ {
				var got, want Message
				err := c.recv(&got)
				werr := dec.Decode(&want)
				if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("frame %d of %q:\n got %#v, %v\nwant %#v, %v", step, in, got, err, want, werr)
				}
				if werr == io.EOF {
					break
				}
				clock := DecodeDigest(got.Digest)
				back := DecodeDigest(EncodeDigest(clock))
				if !clock.Dominates(back) || !back.Dominates(clock) {
					t.Fatalf("digest round trip: %v vs %v", clock, back)
				}
			}
		}
	})
}

// readOnly is a connection that only reads.
type readOnly struct{ io.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }
