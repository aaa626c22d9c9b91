// Package jsonx is the node's JSON codec, written for its two schemas: the
// wire frame (internal/wire) and the store snapshot (internal/store).
//
// Encoder appends JSON text that is byte for byte what encoding/json writes
// for the same values. Parser is a pull parser over a stream that accepts a
// plain subset of JSON and declines everything else: escapes in a struct's
// keys, unknown keys (case variants included), duplicate keys, null other
// than for a slice or map, fractions, exponents, out-of-range numbers and
// syntax errors. A caller whose parse was declined replays the value through
// encoding/json (Parser.Rest), so values, errors and the stream position are
// encoding/json's on every input, by construction; the fast path only has
// to agree with it on the subset.
package jsonx

import (
	"encoding/json"
	"strconv"
)

// Encoder appends JSON tokens to Buf.
type Encoder struct {
	Buf []byte
}

// Lit appends s verbatim: punctuation, keys and indentation.
func (e *Encoder) Lit(s string) { e.Buf = append(e.Buf, s...) }

// Int appends v as a JSON number.
func (e *Encoder) Int(v int64) { e.Buf = strconv.AppendInt(e.Buf, v, 10) }

// Uint appends v as a JSON number.
func (e *Encoder) Uint(v uint64) { e.Buf = strconv.AppendUint(e.Buf, v, 10) }

// plainASCII marks the bytes encoding/json copies into a string literal
// unchanged under every setting: printable ASCII except the JSON and HTML
// metacharacters.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range []byte(`"\<>&`) {
		t[c] = false
	}
	return t
}()

// Str appends s as a JSON string. A string of plain bytes is quoted here;
// any other goes through encoding/json, so escaping is its escaping (HTML
// metacharacters escaped, invalid UTF-8 replaced).
func (e *Encoder) Str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainASCII[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			e.Buf = append(e.Buf, q...)
			return
		}
	}
	e.Buf = append(e.Buf, '"')
	e.Buf = append(e.Buf, s...)
	e.Buf = append(e.Buf, '"')
}
