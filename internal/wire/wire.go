// Package wire implements the networked peer protocol of the F2F OSN node:
// newline-delimited JSON over TCP (stdlib net only). A sync session pulls
// the posts the client lacks and pushes the posts the server lacks, per
// wall, and ends with a bye from each side: the server answers the client's
// bye once it has applied every push, and Sync fails if the connection ends
// before that answer. Both ends build a delta with store.Delta and apply one
// with store.MergeDelta, the pair store.SyncInto — and through it the
// simulated runtime — replicates with, so the runnable node (cmd/dosn-node)
// exercises exactly the replication logic the experiments model by
// construction. A delta the store rejects ends the session with an error
// frame naming its wall, on whichever end received it.
//
// The client pipelines a session in three phases, so it waits on the server
// twice whatever the number of walls: (1) its hello and a sync frame per
// wall, then the answers, each delta merged as it arrives (past 64 KB of
// syncs it reads the answers so far before asking for more); (2) a push
// frame per wall the server hosts, then its bye; (3) the server's bye. No
// push is written while the server may still be writing deltas, so neither
// end ever waits to write on one that waits to write too. The frames, and
// what each holds, are those of a session that asked for one wall at a
// time; only their grouping into Writes differs.
//
// Frames are written and read by a codec built on internal/jsonx, without
// reflection. A frame is written as encoding/json's Encoder writes a Message,
// byte for byte. It is read by a pull parser that returns as soon as the
// frame's closing brace has arrived. The first frame outside the parser's
// plain subset (an escaped or unknown key, null where a string or number
// belongs, a fraction, a syntax error, ...) is replayed, with the rest of the
// session, through an encoding/json Decoder that then reads every later
// frame, so a session decodes what encoding/json decodes, errors included.
// Frames a session sends are buffered and written with one Write before a
// read that could wait on the peer (the parser holds no byte of a further
// frame, or the session is on the encoding/json path), once the buffer holds
// 4 KB, before the sending half closes, and at session end: the bytes on
// the wire are those of one Write per frame, grouped into fewer segments,
// and a server answers frames that arrived together in one Write.
package wire

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"dosn/internal/store"
	"dosn/internal/vclock"
)

// MsgType enumerates protocol messages.
type MsgType string

// Protocol message types.
const (
	// TypeHello opens a session and announces the sender.
	TypeHello MsgType = "hello"
	// TypeSync requests a delta for one wall, carrying the client digest.
	TypeSync MsgType = "sync"
	// TypeDelta answers a sync with missing posts plus the server digest
	// and profile fields.
	TypeDelta MsgType = "delta"
	// TypePush sends posts (and fields) the receiver lacks.
	TypePush MsgType = "push"
	// TypeBye closes the session; the server answers the client's once it
	// has applied every push.
	TypeBye MsgType = "bye"
	// TypeError reports a protocol failure.
	TypeError MsgType = "error"
)

// DigestEntry is one version-vector component in wire form.
type DigestEntry struct {
	Author int32  `json:"author"`
	Seq    uint64 `json:"seq"`
}

// Message is the single wire frame; unused fields are omitted.
type Message struct {
	Type   MsgType                `json:"type"`
	From   int32                  `json:"from,omitempty"`
	Wall   int32                  `json:"wall,omitempty"`
	Digest []DigestEntry          `json:"digest,omitempty"`
	Posts  []store.Post           `json:"posts,omitempty"`
	Fields map[string]store.Field `json:"fields,omitempty"`
	Msg    string                 `json:"msg,omitempty"`
}

// EncodeDigest converts a version vector to wire form, deterministically
// ordered.
func EncodeDigest(c vclock.Clock) []DigestEntry {
	out := make([]DigestEntry, 0, len(c))
	for author, seq := range c {
		out = append(out, DigestEntry{Author: author, Seq: seq})
	}
	// Map iteration order is random; sort for determinism.
	slices.SortFunc(out, func(a, b DigestEntry) int { return cmp.Compare(a.Author, b.Author) })
	return out
}

// DecodeDigest converts wire form back to a version vector.
func DecodeDigest(entries []DigestEntry) vclock.Clock {
	c := vclock.New()
	for _, e := range entries {
		c.Observe(e.Author, e.Seq)
	}
	return c
}

// Server answers sync sessions against a local store.
type Server struct {
	st *store.Store

	mu    sync.Mutex
	ln    net.Listener
	conns sync.WaitGroup
}

// NewServer returns a server for the store.
func NewServer(st *store.Store) *Server { return &Server{st: st} }

// Listen binds the address ("127.0.0.1:0" for an ephemeral port) and starts
// accepting sessions in the background.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.conns.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.conns.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			defer conn.Close()
			s.serve(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight sessions to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.conns.Wait()
	return err
}

// notHosted answers a sync for a wall the server lacks; the client skips it.
const notHosted = "wall not hosted"

// serve handles one session.
func (s *Server) serve(conn net.Conn) {
	c := newCodec(conn)
	defer c.flush() // nothing is left to report a failed last write to

	var hello Message
	if err := c.recv(&hello); err != nil || hello.Type != TypeHello {
		c.end(conn, Message{Type: TypeError, Msg: "expected hello"})
		return
	}
	c.send(Message{Type: TypeHello, From: s.st.Node()})

	for {
		var m Message
		if err := c.recv(&m); err != nil {
			return // disconnect
		}
		switch m.Type {
		case TypeBye: // every push before it has been applied
			c.send(Message{Type: TypeBye, From: s.st.Node()})
			return
		case TypeError: // the peer giving up
			return
		case TypeSync:
			s.handleSync(c, m)
		case TypePush:
			if _, err := s.st.MergeDelta(m.Wall, m.Posts, m.Fields); err != nil {
				c.end(conn, Message{Type: TypeError, Wall: m.Wall, Msg: err.Error()})
				return
			}
		default:
			c.end(conn, Message{Type: TypeError, Msg: fmt.Sprintf("unexpected %q", m.Type)})
			return
		}
	}
}

// end sends the frame that ends a session, closes the sending half and
// discards input until the peer hangs up: closing with input unread resets
// the connection, which can destroy the frame before the peer reads it.
func (c *codec) end(conn net.Conn, m Message) {
	c.send(m)
	_ = c.flush()
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	io.Copy(io.Discard, conn)
}

func (s *Server) handleSync(c *codec, m Message) {
	missing, fields, err := s.st.Delta(m.Wall, DecodeDigest(m.Digest))
	if err != nil {
		c.send(Message{Type: TypeError, Wall: m.Wall, Msg: notHosted})
		return
	}
	digest, _ := s.st.Digest(m.Wall) // Delta found the wall, and no wall is ever dropped
	c.send(Message{
		Type:   TypeDelta,
		From:   s.st.Node(),
		Wall:   m.Wall,
		Posts:  missing,
		Digest: EncodeDigest(digest),
		Fields: fields,
	})
}

// SyncStats reports one client session's transfer counts.
type SyncStats struct {
	Pulled int // posts applied locally
	Pushed int // posts sent to the peer
	Walls  int // walls synced
}

// ErrRejected is returned when a sync session is refused: the peer answered
// with an error frame, or sent a delta the local store rejected.
var ErrRejected = errors.New("wire: session rejected")

// rejected is Sync's error for a frame that is not the answer it awaits.
func rejected(m Message) error {
	if m.Type == TypeError {
		return fmt.Errorf("%w: wall %d: %s", ErrRejected, m.Wall, m.Msg)
	}
	return fmt.Errorf("%w: unexpected %q", ErrRejected, m.Type)
}

// syncWindow bounds the sync frames a session sends before it reads their
// answers. A window, at most this plus one frame, is well under what a
// connection's send and receive buffers hold by default, so writing it never
// waits on a server that is itself waiting to write deltas the client has
// not read yet.
const syncWindow = 16 * sessionBuf

// Sync dials addr and synchronizes every wall both sides host: it walks the
// walls the local store hosts and the peer skips the ones it lacks. It
// returns nil only once the peer has answered its bye, that is, once the
// peer has applied every push.
func Sync(addr string, st *store.Store) (SyncStats, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return SyncStats{}, fmt.Errorf("wire dial %s: %w", addr, err)
	}
	defer conn.Close()
	return syncOver(conn, st)
}

// peerWall is a wall the peer hosts, with the digest its delta carried.
type peerWall struct {
	wall   int32
	digest []DigestEntry
}

// syncOver runs Sync's session over conn, in three phases, so that it waits
// on the peer twice whatever the number of walls:
//
//  1. the hello and a sync per wall go out, then their answers come back,
//     each delta merged as it arrives; past syncWindow bytes of syncs the
//     session reads the answers so far before it asks for more;
//  2. once every delta is merged, a push per wall the peer hosts and the
//     bye go out, in Writes of about sessionBuf bytes;
//  3. the session awaits the peer's answer to its bye.
//
// No push is written while the peer may still be writing deltas, so neither
// end ever waits to write on one that waits to write too.
func syncOver(conn net.Conn, st *store.Store) (SyncStats, error) {
	var stats SyncStats
	c := newCodec(conn)
	defer c.flush() // a frame sent on the way out, an error frame say, leaves before the close

	c.send(Message{Type: TypeHello, From: st.Node()})
	walls := st.Walls()
	asked, err := c.sendSyncs(st, walls, 0)
	if err != nil {
		return stats, err
	}
	var hello Message
	if err := c.recv(&hello); err != nil {
		return stats, fmt.Errorf("wire hello reply: %w", err)
	}
	if hello.Type != TypeHello {
		return stats, fmt.Errorf("%w: %s", ErrRejected, hello.Msg)
	}

	peer := make([]peerWall, 0, len(walls))
	for i, wall := range walls {
		if i == asked { // every answer so far is read: ask for the next window
			if asked, err = c.sendSyncs(st, walls, asked); err != nil {
				return stats, err
			}
		}
		var delta Message
		if err := c.recv(&delta); err != nil {
			return stats, fmt.Errorf("wire delta %d: %w", wall, err)
		}
		if delta.Type == TypeError && delta.Wall == wall && delta.Msg == notHosted {
			continue // peer does not host this wall
		}
		if delta.Type != TypeDelta {
			return stats, rejected(delta)
		}
		pulled, err := st.MergeDelta(wall, delta.Posts, delta.Fields)
		if err != nil {
			// The peer may still be answering later syncs: the error frame
			// goes out through end, which reads until the peer hangs up, so
			// unread answers cannot reset the connection under it.
			c.end(conn, Message{Type: TypeError, From: st.Node(), Wall: wall, Msg: err.Error()})
			return stats, fmt.Errorf("%w: %v", ErrRejected, err)
		}
		stats.Pulled += pulled
		peer = append(peer, peerWall{wall: wall, digest: delta.Digest})
	}

	// Push back what the peer lacks, with the fields as merged here.
	for _, pw := range peer {
		toPush, fields, err := st.Delta(pw.wall, DecodeDigest(pw.digest))
		if err != nil {
			return stats, err
		}
		if err := c.queue(Message{
			Type:   TypePush,
			From:   st.Node(),
			Wall:   pw.wall,
			Posts:  toPush,
			Fields: fields,
		}); err != nil {
			return stats, fmt.Errorf("wire push: %w", err)
		}
		stats.Pushed += len(toPush)
		stats.Walls++
	}
	c.send(Message{Type: TypeBye, From: st.Node()})
	if err := c.flush(); err != nil {
		return stats, fmt.Errorf("wire push: %w", err) // the last pushes go out with the bye
	}
	// The server answers the bye once it has applied every push, so the
	// session has succeeded only when that reply arrives; a rejected push
	// arrives here as its error frame. Each frame decodes into a fresh
	// Message: a field a frame omits is zero, not the last frame's.
	for {
		var done Message
		if err := c.recv(&done); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return stats, fmt.Errorf("wire bye reply: %w", err)
		}
		switch done.Type {
		case TypeBye:
			return stats, nil
		case TypeError:
			return stats, rejected(done)
		}
	}
}

// sendSyncs sends the sync frames of walls[from:] until the buffer holds
// syncWindow bytes, one frame at least, and returns the index of the first
// wall not asked for. The frames leave with the next recv's flush.
func (c *codec) sendSyncs(st *store.Store, walls []int32, from int) (int, error) {
	for from < len(walls) {
		digest, err := st.Digest(walls[from])
		if err != nil {
			return from, err
		}
		c.send(Message{
			Type:   TypeSync,
			From:   st.Node(),
			Wall:   walls[from],
			Digest: EncodeDigest(digest),
		})
		if from++; len(c.out) >= syncWindow {
			break
		}
	}
	return from, nil
}
