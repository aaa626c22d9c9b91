package wire

import (
	"testing"

	"dosn/internal/store"
	"dosn/internal/vclock"
)

// benchDelta is one delta frame of the repository benchmark's node_sync
// round: one author's 4 new posts on a wall, bodies of 120 letters, and the
// wall's two-author digest.
func benchDelta() Message {
	const letters = "abcdefghijklmnopqrstuvwxyz      "
	posts := make([]store.Post, 4)
	for i := range posts {
		body := make([]byte, 120)
		for j := range body {
			body[j] = letters[(7*i+j)%len(letters)]
		}
		posts[i] = store.Post{
			ID:        store.PostID{Author: 2, Seq: uint64(201 + i)},
			Wall:      100,
			Body:      string(body),
			CreatedAt: int64(200 + i),
		}
	}
	d := vclock.New()
	d.Observe(1, 204)
	d.Observe(2, 204)
	return Message{Type: TypeDelta, From: 2, Wall: 100, Posts: posts, Digest: EncodeDigest(d)}
}

// loopConn is a connection whose peer sends one frame over and over and
// discards whatever it is sent.
type loopConn struct {
	frame []byte
	off   int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.frame[c.off:])
	c.off = (c.off + n) % len(c.frame)
	return n, nil
}

func (c *loopConn) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFrame times the session codec on one delta frame: encode is the
// sending end's send and flush, one Write per frame, decode the receiving
// end's recv, both through the byte-counting codec a session uses.
func BenchmarkFrame(b *testing.B) {
	m := benchDelta()
	frame := appendMessage(nil, &m)
	b.Run("encode", func(b *testing.B) {
		c := newCodec(&loopConn{frame: frame})
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for b.Loop() {
			c.send(m)
			if err := c.flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		c := newCodec(&loopConn{frame: frame})
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		var got Message
		for b.Loop() {
			got = Message{}
			if err := c.recv(&got); err != nil {
				b.Fatal(err)
			}
		}
		if c.dec != nil || len(got.Posts) != len(m.Posts) || got.Posts[3] != m.Posts[3] {
			b.Fatalf("decoded %+v through encoding/json: %v, want %+v", got, c.dec != nil, m)
		}
	})
}
