//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only exact without it.

package store

import (
	"bytes"
	"strings"
	"testing"
)

// Save of a plain store into a fresh bytes.Buffer allocates the output once:
// one allocation more than into a buffer already large enough, and a
// capacity of the snapshot's length rounded up to an allocation size.
func TestSaveGrowsFreshBufferOnce(t *testing.T) {
	s := New(1)
	for w := NodeID(1); w <= 8; w++ {
		s.Host(w)
		for i := 0; i < 100; i++ {
			if _, err := s.Author(w, strings.Repeat("post ", 1+i%30), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.SetField(w, "bio", Field{Value: "plain", At: 1, Writer: w}); err != nil {
			t.Fatal(err)
		}
	}
	buf := new(bytes.Buffer)
	save := func() {
		if err := s.Save(buf); err != nil {
			t.Fatal(err)
		}
	}
	save()
	n := buf.Len()
	if n < 2*snapshotChunk {
		t.Fatalf("snapshot is %d bytes, want several chunks", n)
	}
	reused := testing.AllocsPerRun(5, func() { buf.Reset(); save() })
	fresh := testing.AllocsPerRun(5, func() { *buf = bytes.Buffer{}; save() })
	if fresh != reused+1 {
		t.Errorf("Save allocated %v times into a fresh buffer, %v into a reused one; want exactly one more", fresh, reused)
	}
	if want := cap(append([]byte(nil), make([]byte, n)...)); buf.Len() != n || cap(buf.Bytes()) > want {
		t.Errorf("fresh buffer holds %d bytes in a capacity of %d; want %d in at most %d", buf.Len(), cap(buf.Bytes()), n, want)
	}
}
