package wire

import (
	"encoding/json"
	"errors"
	"io"
	"slices"

	"dosn/internal/fault"
	"dosn/internal/jsonx"
	"dosn/internal/store"
)

// Failpoints at the session's I/O seams (see internal/fault): wire.read
// fires per decoded frame, wire.write per flush.
var (
	readSite  = fault.NewSite("wire.read")
	writeSite = fault.NewSite("wire.write")
)

// sessionBuf is the starting size of a session's read and write buffers,
// and the most its write buffer holds before a flush.
const sessionBuf = 4 << 10

// codec is one session's frame codec. send appends a frame to the session
// buffer and flush writes the buffer with one Write. recv flushes before a
// read that could wait on the peer — the parser holds no byte of a further
// frame, or the session is on the encoding/json path — and whenever the
// buffer holds sessionBuf bytes, so a peer never waits on a frame still
// buffered here, and answers to frames that arrived together leave
// together. Frames come in through a jsonx.Parser. The first frame it
// declines is replayed, together with the rest of the session, through an
// encoding/json Decoder that decodes every frame after it.
type codec struct {
	w   io.Writer
	out []byte
	p   *jsonx.Parser
	dec *json.Decoder // the declined-input path, once taken
}

// newCodec wraps a connection in the counted codec every session uses.
func newCodec(conn io.ReadWriter) *codec {
	return &codec{
		w:   countingWriter{w: conn, c: wireBytesWritten},
		out: make([]byte, 0, sessionBuf),
		p:   jsonx.NewParser(countingReader{r: conn, c: wireBytesRead}, sessionBuf),
	}
}

// send appends one frame and counts it by type. Error frames count into
// wire.errors too: a spike there is the first sign of a misbehaving peer.
func (c *codec) send(m Message) {
	c.out = appendMessage(c.out, &m)
	wireSent[m.Type].Inc()
	if m.Type == TypeError {
		wireErrors.Inc()
	}
}

// flush writes the frames sent since the last flush; after a failed write
// they are dropped.
func (c *codec) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	out := c.out
	c.out = c.out[:0]
	err := writeSite.Inject()
	if err == nil {
		_, err = c.w.Write(out)
	}
	if err != nil {
		wireErrors.Inc()
	}
	return err
}

// queue sends m and flushes once the buffer holds sessionBuf bytes: a run of
// frames with no read between them leaves in Writes of about that size.
func (c *codec) queue(m Message) error {
	if c.send(m); len(c.out) < sessionBuf {
		return nil
	}
	return c.flush()
}

// recv flushes if the read could wait on the peer or the buffer is full (see
// codec), then decodes the next frame into m, which must be zero, and counts
// it by type. A frame of a type outside the protocol (untrusted input)
// counts under wire.recv.other so metric names stay bounded. EOF is the
// normal session end and is not an error.
func (c *codec) recv(m *Message) error {
	if c.dec != nil || !c.p.Buffered() || len(c.out) >= sessionBuf {
		if err := c.flush(); err != nil {
			return err
		}
	}
	err := c.decode(m)
	if err == nil {
		err = readSite.Inject()
	}
	if err != nil {
		if !errors.Is(err, io.EOF) {
			wireErrors.Inc()
		}
		return err
	}
	if n := wireRecv[m.Type]; n != nil {
		n.Inc()
	} else {
		wireRecvOther.Inc()
	}
	if m.Type == TypeError {
		wireErrors.Inc()
	}
	return nil
}

// decode reads one frame: through the parser until it declines one, then
// through encoding/json, so what m holds and whether it is an error are
// encoding/json's on every input.
func (c *codec) decode(m *Message) error {
	if c.dec == nil {
		if err := c.p.Start(); err != nil {
			return err
		}
		if parseMessage(c.p, m); !c.p.Declined() {
			return nil
		}
		*m = Message{}
		c.dec = json.NewDecoder(c.p.Rest())
	}
	return c.dec.Decode(m)
}

var messageNames = []string{"type", "from", "wall", "digest", "posts", "fields", "msg"}

func parseMessage(p *jsonx.Parser, m *Message) {
	o := p.Object(messageNames)
	for o.Next() {
		switch o.Key {
		case 0:
			m.Type = MsgType(p.Str())
		case 1:
			m.From = p.Int32()
		case 2:
			m.Wall = p.Int32()
		case 3:
			m.Digest = jsonx.Slice(p, parseDigestEntry)
		case 4:
			m.Posts = jsonx.Slice(p, parsePost)
		case 5:
			m.Fields = jsonx.Map(p, parseField)
		case 6:
			m.Msg = p.Str()
		}
	}
}

func parseDigestEntry(p *jsonx.Parser, e *DigestEntry) { p.AuthorSeq(&e.Author, &e.Seq) }

func parsePost(p *jsonx.Parser, q *store.Post) {
	p.Post(&q.ID.Author, &q.ID.Seq, &q.Wall, &q.Body, &q.CreatedAt)
}

func parseField(p *jsonx.Parser, f *store.Field) { p.Field(&f.Value, &f.At, &f.Writer) }

// appendMessage appends m as encoding/json's Encoder writes it: fields in
// declaration order, empty ones omitted, field names sorted, HTML escaped,
// and a newline after the frame.
func appendMessage(b []byte, m *Message) []byte {
	e := jsonx.Encoder{Buf: b}
	e.Lit(`{"type":`)
	e.Str(string(m.Type))
	if m.From != 0 {
		e.Lit(`,"from":`)
		e.Int(int64(m.From))
	}
	if m.Wall != 0 {
		e.Lit(`,"wall":`)
		e.Int(int64(m.Wall))
	}
	if len(m.Digest) > 0 {
		e.Lit(`,"digest":[`)
		for i, d := range m.Digest {
			if i > 0 {
				e.Lit(",")
			}
			e.Lit(`{"author":`)
			e.Int(int64(d.Author))
			e.Lit(`,"seq":`)
			e.Uint(d.Seq)
			e.Lit("}")
		}
		e.Lit("]")
	}
	if len(m.Posts) > 0 {
		e.Lit(`,"posts":[`)
		for i := range m.Posts {
			p := &m.Posts[i]
			if i > 0 {
				e.Lit(",")
			}
			e.Lit(`{"id":{"author":`)
			e.Int(int64(p.ID.Author))
			e.Lit(`,"seq":`)
			e.Uint(p.ID.Seq)
			e.Lit(`},"wall":`)
			e.Int(int64(p.Wall))
			e.Lit(`,"body":`)
			e.Str(p.Body)
			e.Lit(`,"createdAt":`)
			e.Int(p.CreatedAt)
			e.Lit("}")
		}
		e.Lit("]")
	}
	if len(m.Fields) > 0 {
		names := make([]string, 0, len(m.Fields))
		for name := range m.Fields {
			names = append(names, name)
		}
		slices.Sort(names)
		e.Lit(`,"fields":{`)
		for i, name := range names {
			f := m.Fields[name]
			if i > 0 {
				e.Lit(",")
			}
			e.Str(name)
			e.Lit(`:{"value":`)
			e.Str(f.Value)
			e.Lit(`,"at":`)
			e.Int(f.At)
			e.Lit(`,"writer":`)
			e.Int(int64(f.Writer))
			e.Lit("}")
		}
		e.Lit("}")
	}
	if m.Msg != "" {
		e.Lit(`,"msg":`)
		e.Str(m.Msg)
	}
	e.Lit("}\n")
	return e.Buf
}
