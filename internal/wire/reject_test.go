package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dosn/internal/store"
)

func saved(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stubPeer serves one session on loopback: it answers the client's hello,
// hands the session to answer, then ends it as Server does after an error —
// the sending half closed, the client's input discarded until it hangs up.
func stubPeer(t *testing.T, answer func(dec *json.Decoder, enc *json.Encoder)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec, enc := json.NewDecoder(conn), json.NewEncoder(conn)
		var hello Message
		if dec.Decode(&hello) != nil || enc.Encode(Message{Type: TypeHello, From: 1}) != nil {
			return
		}
		answer(dec, enc)
		_ = conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, conn)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// A push for wall 10 that carries a wall-11 post is refused whole, even
// though the server hosts wall 11 too: the session gets an error frame naming
// wall 10, counted in wire.errors, and then ends.
func TestServerRejectsForeignWallPush(t *testing.T) {
	st := store.New(1)
	st.Host(10)
	st.Host(11)
	if _, err := st.Author(11, "kept", 1); err != nil {
		t.Fatal(err)
	}
	before := saved(t, st)
	addr := startServer(t, st)
	errorsBefore := wireErrors.Value()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(`{"type":"hello","from":2}` + "\n" +
		`{"type":"push","from":2,"wall":10,"posts":[{"id":{"author":2,"seq":1},"wall":10,"body":"valid"},{"id":{"author":2,"seq":2},"wall":11,"body":"foreign"}]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	var hello, reply, after Message
	if err := dec.Decode(&hello); err != nil || hello.Type != TypeHello {
		t.Fatalf("hello = %+v, %v", hello, err)
	}
	if err := dec.Decode(&reply); err != nil {
		t.Fatalf("no answer to the rejected push: %v", err)
	}
	if reply.Type != TypeError || reply.Wall != 10 || !strings.Contains(reply.Msg, "wall 11") {
		t.Errorf("answer = %+v, want an error frame for wall 10 naming wall 11", reply)
	}
	if err := dec.Decode(&after); !errors.Is(err, io.EOF) {
		t.Errorf("after the error frame: %+v, %v; want the session closed", after, err)
	}
	if got := wireErrors.Value() - errorsBefore; got != 1 {
		t.Errorf("wire.errors rose by %d, want 1", got)
	}
	if !bytes.Equal(saved(t, st), before) {
		t.Error("the rejected push changed the store")
	}
}

// A delta holding a post of another wall is refused by the client: Sync
// fails with ErrRejected, tells the peer which wall, and stores nothing.
func TestSyncRejectsForeignWallDelta(t *testing.T) {
	st := store.New(2)
	for _, wall := range []int32{10, 11} {
		st.Host(wall)
		if _, err := st.Author(wall, "kept", 1); err != nil {
			t.Fatal(err)
		}
	}
	before := saved(t, st)
	told := make(chan Message, 1)
	addr := stubPeer(t, func(dec *json.Decoder, enc *json.Encoder) {
		var m Message
		if dec.Decode(&m) != nil {
			return
		}
		_ = enc.Encode(Message{Type: TypeDelta, From: 1, Wall: m.Wall, Posts: []store.Post{
			{ID: store.PostID{Author: 1, Seq: 1}, Wall: m.Wall, Body: "valid"},
			{ID: store.PostID{Author: 1, Seq: 2}, Wall: 11, Body: "foreign"},
		}})
		// The client has sent its sync for wall 11 before reading this
		// delta: the error frame comes after it.
		var reply Message
		for dec.Decode(&reply) == nil && reply.Type == TypeSync {
			reply = Message{}
		}
		told <- reply
	})
	if _, err := Sync(addr, st); !errors.Is(err, ErrRejected) {
		t.Fatalf("Sync = %v, want ErrRejected", err)
	}
	if !bytes.Equal(saved(t, st), before) {
		t.Error("the rejected delta changed the store")
	}
	if m := <-told; m.Type != TypeError || m.Wall != 10 {
		t.Errorf("peer was told %+v, want an error frame for wall 10", m)
	}
}

// A push the peer rejects fails Sync whichever wall it was on: every push
// goes out after the last delta has arrived, so the error frame arrives
// while the session awaits the bye reply.
func TestSyncSurfacesRejectedPush(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reject int32
	}{{"middle wall", 11}, {"last wall", 12}} {
		t.Run(tc.name, func(t *testing.T) {
			st := store.New(2)
			for _, wall := range []int32{10, 11, 12} {
				st.Host(wall)
				if _, err := st.Author(wall, "pushed", 1); err != nil {
					t.Fatal(err)
				}
			}
			addr := stubPeer(t, func(dec *json.Decoder, enc *json.Encoder) {
				for {
					var m Message
					if dec.Decode(&m) != nil {
						return
					}
					switch {
					case m.Type == TypeSync:
						_ = enc.Encode(Message{Type: TypeDelta, From: 1, Wall: m.Wall})
					case m.Type == TypePush && m.Wall == tc.reject:
						_ = enc.Encode(Message{Type: TypeError, Wall: m.Wall, Msg: "rejected"})
						return
					case m.Type != TypePush:
						return
					}
				}
			})
			_, err := Sync(addr, st)
			if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), fmt.Sprintf("wall %d", tc.reject)) {
				t.Errorf("Sync = %v, want ErrRejected naming wall %d", err, tc.reject)
			}
		})
	}
}

// Sync's drain loop decodes each frame into a fresh Message: an error frame
// with neither wall nor message, arriving after a stray frame that carried
// both, is reported with neither.
func TestSyncDrainReportsEachFrameAlone(t *testing.T) {
	st := store.New(2)
	st.Host(10)
	addr := stubPeer(t, func(dec *json.Decoder, enc *json.Encoder) {
		for {
			var m Message
			if dec.Decode(&m) != nil {
				return
			}
			switch m.Type {
			case TypeSync:
				_ = enc.Encode(Message{Type: TypeDelta, From: 1, Wall: m.Wall})
			case TypeBye:
				_ = enc.Encode(Message{Type: TypeDelta, Wall: 12, Msg: "x"})
				_ = enc.Encode(Message{Type: TypeError})
				return
			}
		}
	})
	_, err := Sync(addr, st)
	if want := "wire: session rejected: wall 0: "; err == nil || err.Error() != want {
		t.Errorf("Sync = %v, want %q", err, want)
	}
}

// Sync succeeds only on the peer's answer to its bye, which a server sends
// once it has applied every push: a peer that takes the pushes and hangs up
// without answering fails Sync, though each push was written in full.
func TestSyncAwaitsByeReply(t *testing.T) {
	st := store.New(2)
	for _, wall := range []int32{10, 11} {
		st.Host(wall)
		if _, err := st.Author(wall, "pushed", 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, reply := range []bool{false, true} {
		t.Run(fmt.Sprint("reply=", reply), func(t *testing.T) {
			addr := stubPeer(t, func(dec *json.Decoder, enc *json.Encoder) {
				for {
					var m Message
					if dec.Decode(&m) != nil {
						return
					}
					switch m.Type {
					case TypeSync:
						_ = enc.Encode(Message{Type: TypeDelta, From: 1, Wall: m.Wall})
					case TypeBye:
						if reply {
							_ = enc.Encode(Message{Type: TypeBye, From: 1})
						}
						return
					}
				}
			})
			stats, err := Sync(addr, st)
			if stats.Pushed != 2 {
				t.Errorf("Pushed = %d, want 2", stats.Pushed)
			}
			if reply && err != nil {
				t.Errorf("Sync = %v with the bye answered, want nil", err)
			}
			if !reply && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("Sync = %v with the bye unanswered, want %v", err, io.ErrUnexpectedEOF)
			}
		})
	}
}
