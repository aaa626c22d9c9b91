package jsonx

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
)

// minRead is the least free space a read is offered; short of it the buffer
// grows as encoding/json's Decoder grows its own, to twice its size plus
// minRead.
const minRead = 512

// Parser pulls values from a stream. It owns its read buffer, as
// encoding/json's Decoder does, and keeps every byte of the value Start
// began until the next Start, so a declined value can be replayed (Rest).
//
// Parsing is schema-directed: the caller walks the value it expects with
// Object, Array and the scalar methods. Any of them may decline; the parser
// then stops consuming input, the rest of the walk is a no-op that returns
// zero values, and Declined reports it. The parser reads only while the
// value it is walking needs more bytes, so a walk returns as soon as the
// value's closing brace has arrived: it never waits for a newline or EOF.
type Parser struct {
	r   io.Reader
	buf []byte // the value Start began sits at buf[0:]
	pos int    // next unconsumed byte of buf
	// err is the reader's error, kept as encoding/json's Decoder keeps it:
	// io.EOF once the stream has ended.
	err      error
	declined bool
}

// NewParser returns a parser reading r through a buffer of size bytes to
// start with.
func NewParser(r io.Reader, size int) *Parser {
	return &Parser{r: r, buf: make([]byte, 0, size)}
}

// Start skips whitespace to the next value and makes its first byte the
// replay point. If the stream ends first it returns the reader's error —
// io.EOF at a clean end — and keeps returning it, as encoding/json does.
func (p *Parser) Start() error {
	p.declined = false
	for {
		for p.pos < len(p.buf) && isSpace(p.buf[p.pos]) {
			p.pos++
		}
		if p.pos < len(p.buf) {
			break
		}
		p.buf, p.pos = p.buf[:0], 0
		if p.err != nil {
			return p.err
		}
		p.read()
	}
	n := copy(p.buf, p.buf[p.pos:])
	p.buf, p.pos = p.buf[:n], 0
	return nil
}

// Buffered reports whether the buffer holds the start of a further value: a
// byte other than whitespace past the last one consumed. When it does not,
// the next Start reads, and may wait on the stream; the newline after a
// frame is whitespace and counts as nothing.
func (p *Parser) Buffered() bool {
	for _, c := range p.buf[p.pos:] {
		if !isSpace(c) {
			return true
		}
	}
	return false
}

// Declined reports whether the walk since Start met input outside the
// parser's subset.
func (p *Parser) Declined() bool { return p.declined }

// Decline gives up on the value: the caller's schema rejects what it read
// (a duplicate map key, say).
func (p *Parser) Decline() {
	p.declined = true
	p.pos = len(p.buf) // every later read of the walk sees no input
}

// Rest returns the stream from the replay point on: the bytes of the value
// Start began, as far as they were read, then the rest of the reader and,
// last, its error. Decoding Rest with encoding/json is decoding the stream
// as if the parser had never read it. The parser must not be used after.
func (p *Parser) Rest() io.Reader {
	tail := p.r
	if p.err != nil {
		tail = errReader{p.err}
	}
	return io.MultiReader(bytes.NewReader(p.buf), tail)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// read appends the reader's next bytes to buf, keeping its error.
func (p *Parser) read() {
	if cap(p.buf)-len(p.buf) < minRead {
		grown := make([]byte, len(p.buf), 2*cap(p.buf)+minRead)
		copy(grown, p.buf)
		p.buf = grown
	}
	n, err := p.r.Read(p.buf[len(p.buf):cap(p.buf)])
	p.buf = p.buf[:len(p.buf)+n]
	p.err = err
}

// avail reports whether buf[i] exists, reading until it does; at the end of
// the stream, or once declined, it declines.
func (p *Parser) avail(i int) bool { return i < len(p.buf) || p.fill(i) }

func (p *Parser) fill(i int) bool {
	for i >= len(p.buf) {
		if p.err != nil || p.declined {
			p.Decline()
			return false
		}
		p.read()
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// peek skips whitespace and returns the next byte unconsumed; 0, having
// declined, when there is none.
func (p *Parser) peek() byte {
	if p.pos < len(p.buf) {
		if c := p.buf[p.pos]; c > ' ' {
			return c
		}
	}
	return p.skipSpace()
}

func (p *Parser) skipSpace() byte {
	for p.avail(p.pos) {
		if c := p.buf[p.pos]; !isSpace(c) {
			return c
		}
		p.pos++
	}
	return 0
}

// expect consumes the byte c after whitespace, or declines.
func (p *Parser) expect(c byte) bool {
	if p.peek() == c {
		p.pos++
		return true
	}
	p.Decline()
	return false
}

// strPlain marks the bytes a JSON string holds as themselves: everything
// from the space up except the quote, the backslash and the bytes of
// multi-byte UTF-8.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = false, false
	return t
}()

// span consumes a string token and returns the offsets of its contents,
// buf[i:j], and whether they are all plain bytes; ok is false when the
// parser declined.
func (p *Parser) span() (i, j int, plain, ok bool) {
	if p.peek() != '"' {
		p.Decline()
		return 0, 0, false, false
	}
	i = p.pos + 1
	j, plain = i, true
	for p.avail(j) {
		b := p.buf
		for j+8 <= len(b) && plainWord(binary.LittleEndian.Uint64(b[j:])) {
			j += 8
		}
		for j < len(b) && strPlain[b[j]] {
			j++
		}
		if j == len(b) {
			continue
		}
		switch c := b[j]; {
		case c == '"':
			p.pos = j + 1
			return i, j, plain, true
		case c == '\\':
			j += 2 // the escaped byte cannot close the string
		default:
			j++
		}
		plain = false
	}
	return 0, 0, false, false
}

// plainWord reports whether the 8 bytes packed in x are all strPlain: none
// at or above 0x80, below 0x20, a quote or a backslash. Each test is the
// exact any-byte form of the classic has-less / has-zero bit tricks, exact
// once x has no byte at or above 0x80, which the first term rules out.
func plainWord(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote, backslash := x^(ones*'"'), x^(ones*'\\')
	special := x | (x-ones*0x20)&^x | (quote-ones)&^quote | (backslash-ones)&^backslash
	return special&highs == 0
}

// Str consumes a string. One of plain bytes is copied out; any other —
// escapes, UTF-8, control bytes — is unquoted by encoding/json, token alone,
// and declined if it refuses it.
func (p *Parser) Str() string {
	i, j, plain, ok := p.span()
	if !ok {
		return ""
	}
	return p.unquote(i, j, plain)
}

// unquote returns the string token whose contents are buf[i:j].
func (p *Parser) unquote(i, j int, plain bool) string {
	if plain {
		return string(p.buf[i:j])
	}
	var s string
	if json.Unmarshal(p.buf[i-1:j+1], &s) != nil {
		p.Decline()
	}
	return s
}

// null consumes a null literal if one comes next.
func (p *Parser) null() bool {
	if p.peek() != 'n' || !p.avail(p.pos+3) {
		return false
	}
	if string(p.buf[p.pos:p.pos+4]) != "null" {
		p.Decline()
		return false
	}
	p.pos += 4
	return true
}

// integer consumes an integer token: an optional minus sign, then 0 or a
// digit run without a leading 0. It declines on a fraction, an exponent or
// a magnitude past uint64.
func (p *Parser) integer() (mag uint64, neg bool) {
	c := p.peek()
	if c == '-' {
		neg = true
		p.pos++
		if !p.avail(p.pos) {
			return 0, false
		}
		c = p.buf[p.pos]
	}
	switch {
	case c == '0':
		p.pos++
	case '1' <= c && c <= '9':
	digits:
		for p.avail(p.pos) {
			for ; p.pos < len(p.buf); p.pos++ {
				d := uint64(p.buf[p.pos] - '0')
				if d > 9 {
					break digits
				}
				if mag > (math.MaxUint64-d)/10 {
					p.Decline()
					return 0, false
				}
				mag = mag*10 + d
			}
		}
	default:
		p.Decline()
		return 0, false
	}
	// In an object or array a delimiter follows, so this waits for no byte
	// encoding/json would not.
	if !p.avail(p.pos) {
		return 0, false
	}
	if c := p.buf[p.pos]; c == '.' || c == 'e' || c == 'E' || '0' <= c && c <= '9' {
		p.Decline()
		return 0, false
	}
	return mag, neg
}

// Int64 consumes an integer in int64's range.
func (p *Parser) Int64() int64 {
	mag, neg := p.integer()
	switch {
	case !neg && mag <= math.MaxInt64:
		return int64(mag)
	case neg && mag <= math.MaxInt64:
		return -int64(mag)
	case neg && mag == math.MaxInt64+1:
		return math.MinInt64
	}
	p.Decline()
	return 0
}

// Int32 consumes an integer in int32's range.
func (p *Parser) Int32() int32 {
	v := p.Int64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		p.Decline()
		return 0
	}
	return int32(v)
}

// Uint64 consumes a non-negative integer in uint64's range.
func (p *Parser) Uint64() uint64 {
	mag, neg := p.integer()
	if neg {
		p.Decline()
		return 0
	}
	return mag
}

// Object walks the members of a JSON object.
type Object struct {
	p     *Parser
	names []string
	seen  uint64
	more  bool // a member was read
	// Key is the index in names of the current member's key.
	Key int
	// Name is the current member's key when names is nil.
	Name string
}

// Object consumes the opening brace of an object whose keys are names, at
// most 64 of them, each at most once; with names nil, of a map's object,
// whose keys may be any string.
func (p *Parser) Object(names []string) Object {
	p.expect('{')
	return Object{p: p, names: names}
}

// Next consumes the next member's key and colon and reports whether there
// was one: false at the closing brace, which it consumes, and once the
// parser declined. A key from names must be plain bytes — encoding/json
// would match an escaped one after unquoting it, and a case variant too —
// and it declines on any other and on one repeated.
func (o *Object) Next() bool {
	p := o.p
	if p.declined {
		return false
	}
	c := p.peek()
	if o.more {
		if c == ',' {
			p.pos++
		} else if c == '}' {
			p.pos++
			return false
		} else {
			p.Decline()
			return false
		}
	} else if c == '}' {
		p.pos++
		return false
	}
	o.more = true
	i, j, plain, ok := p.span()
	if !ok {
		return false
	}
	if o.names == nil {
		o.Name = p.unquote(i, j, plain)
		return p.expect(':')
	}
	if !plain {
		p.Decline()
		return false
	}
	// A key seen before declines like an unknown one, so only the names not
	// yet seen are compared: one comparison a member when the keys come in
	// the order names lists them, as the encoders write them.
	key := p.buf[i:j]
	for k, name := range o.names {
		if o.seen&(1<<k) == 0 && string(key) == name {
			o.seen |= 1 << k
			o.Key = k
			return p.expect(':')
		}
	}
	p.Decline()
	return false
}

// Array walks the elements of a JSON array.
type Array struct {
	p    *Parser
	more bool
}

// Array consumes the opening bracket of an array.
func (p *Parser) Array() Array {
	p.expect('[')
	return Array{p: p}
}

// Next reports whether another element follows, consuming the comma before
// it: false at the closing bracket, which it consumes, and once the parser
// declined.
func (a *Array) Next() bool {
	p := a.p
	if p.declined {
		return false
	}
	c := p.peek()
	switch {
	case c == ']':
		p.pos++
		return false
	case !a.more:
		a.more = true
		return true
	case c == ',':
		p.pos++
		return true
	}
	p.Decline()
	return false
}
