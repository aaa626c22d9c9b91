package jsonx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// plainWord is the table test eight bytes at a time.
func TestQuickPlainWordMatchesTable(t *testing.T) {
	edges := []byte{0x00, 0x1f, 0x20, 0x21, '"', '\\', 0x5b, 0x5d, 0x7e, 0x7f, 0x80, 0xc3, 0xff, 'a'}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b [8]byte
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] = edges[rng.Intn(len(edges))]
			} else {
				b[i] = byte(rng.Intn(256))
			}
		}
		want := true
		for _, c := range b {
			want = want && strPlain[c]
		}
		return plainWord(binary.LittleEndian.Uint64(b[:])) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

type pair struct {
	A int32
	B string
	C []uint64
}

var pairNames = []string{"a", "b", "c"}

func parsePair(p *Parser, v *pair) {
	o := p.Object(pairNames)
	for o.Next() {
		switch o.Key {
		case 0:
			v.A = p.Int32()
		case 1:
			v.B = p.Str()
		case 2:
			v.C = Slice(p, func(p *Parser, u *uint64) { *u = p.Uint64() })
		}
	}
}

// The parser takes its subset and declines the rest, leaving the value's
// bytes to Rest whatever it had read of them.
func TestParserSubset(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want pair
	}{
		{`{"a":-2147483648,"b":"x y","c":[0,18446744073709551615]}`, pair{A: -2147483648, B: "x y", C: []uint64{0, 1<<64 - 1}}},
		{` { "c" : [ ] , "a" : -0 } `, pair{C: []uint64{}}},
		{`{"c":null,"b":"é\n<"}`, pair{B: "é\n<"}},
		{`{}`, pair{}},
	} {
		for _, r := range []io.Reader{strings.NewReader(tc.in), iotest.OneByteReader(strings.NewReader(tc.in))} {
			p := NewParser(r, 0)
			var got pair
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			if parsePair(p, &got); p.Declined() || got.A != tc.want.A || got.B != tc.want.B ||
				(got.C == nil) != (tc.want.C == nil) || !slices.Equal(got.C, tc.want.C) {
				t.Errorf("%s: %+v, declined %v; want %+v", tc.in, got, p.Declined(), tc.want)
			}
		}
	}
	for _, in := range []string{
		`{"A":1}`, `{"\u0061":1}`, `{"a":1,"a":2}`, `{"d":1}`, `{"a":null}`, `{"b":null}`,
		`{"a":1.0}`, `{"a":1e3}`, `{"a":01}`, `{"a":2147483648}`, `{"a":-2147483649}`,
		`{"c":[-1]}`, `{"c":[18446744073709551616]}`, `{"b":"\q"}`, `{"b":"a` + "\x01" + `"}`,
		`{"a":1,}`, `{"c":[1,]}`, `{"c":[,]}`, `{"a" 1}`, `{"a":1`, `{"b":"x`, `[1]`, `nul`, `"s"`,
	} {
		p := NewParser(iotest.OneByteReader(strings.NewReader(" \n"+in+" tail")), 0)
		var got pair
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if parsePair(p, &got); !p.Declined() {
			t.Errorf("%s: parsed as %+v, want declined", in, got)
			continue
		}
		if rest, _ := io.ReadAll(p.Rest()); string(rest) != in+" tail" {
			t.Errorf("%s: Rest = %q, want the value and the rest of the stream", in, rest)
		}
	}
}

// Start reports the end of the stream as encoding/json's Decoder does,
// again on every call, and Rest replays a reader's error after the bytes
// that came with it.
func TestParserStreamEnd(t *testing.T) {
	p := NewParser(strings.NewReader(" \t\r\n"), 0)
	for range 2 {
		if err := p.Start(); err != io.EOF {
			t.Fatalf("Start at the end of the stream = %v, want io.EOF", err)
		}
	}
	broken := errors.New("connection reset")
	p = NewParser(io.MultiReader(strings.NewReader(`{"a":`), iotest.ErrReader(broken)), 0)
	var v pair
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if parsePair(p, &v); !p.Declined() {
		t.Fatal("a value cut by a read error parsed")
	}
	rest, err := io.ReadAll(p.Rest())
	if !bytes.Equal(rest, []byte(`{"a":`)) || err != broken {
		t.Errorf("Rest = %q, %v; want the bytes read and then the reader's error", rest, err)
	}
}

// Buffered reports the start of a further value in the buffer and nothing
// else: the newline and spaces after a value count as nothing, so a reader
// that waits on the stream only when Buffered is false never waits with a
// whole value in hand, nor skips a wait when only whitespace is left.
func TestParserBuffered(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{`{"a":1}`, false},
		{`{"a":1}` + "\n", false},
		{`{"a":1}` + " \r\n\t ", false},
		{`{"a":1}` + "\n" + `{"a":2}`, true},
		{`{"a":1}` + "\n" + `{"a`, true},
		{`{"a":1}` + "\n x", true},
	} {
		p := NewParser(strings.NewReader(tc.in), 64)
		var v pair
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if parsePair(p, &v); p.Declined() {
			t.Fatalf("%q declined", tc.in)
		}
		if got := p.Buffered(); got != tc.want {
			t.Errorf("%q: Buffered = %v after the first value, want %v", tc.in, got, tc.want)
		}
	}
}
