package wire

import (
	"io"

	"dosn/internal/obs"
)

// Execution-only wire telemetry (see internal/obs): per-type message
// counters, transferred byte counters, and an error counter, published on
// the debug endpoint of cmd/dosn-node. Counting happens at the codec
// boundary — codec.send/recv/flush and the counting reader/writer below — so
// every session, client or server, is accounted identically.
var (
	wireBytesRead    = obs.C("wire.bytes_read")
	wireBytesWritten = obs.C("wire.bytes_written")
	wireErrors       = obs.C("wire.errors")
	wireSent         = perType("wire.sent.")
	wireRecv         = perType("wire.recv.")
	wireRecvOther    = obs.C("wire.recv.other")
)

// perType registers one counter per protocol message type under prefix.
func perType(prefix string) map[MsgType]*obs.Counter {
	types := []MsgType{TypeHello, TypeSync, TypeDelta, TypePush, TypeBye, TypeError}
	m := make(map[MsgType]*obs.Counter, len(types))
	for _, t := range types {
		m[t] = obs.C(prefix + string(t))
	}
	return m
}

// countingReader counts bytes as they come off the connection, before
// buffering — the counter sees wire volume, not decode volume.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(int64(n))
	}
	return n, err
}

// countingWriter counts bytes written to the connection.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(int64(n))
	}
	return n, err
}
