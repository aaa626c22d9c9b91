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

// Save into a buffer already large enough allocates the same few times
// whatever the snapshot's size: a wall, post or field that would cross the
// end of the encoder's free space is encoded after a flush, never into a
// growing copy.
func TestSaveAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(walls, posts int, fields ...string) (float64, int) {
		s := New(1)
		for w := NodeID(1); w <= NodeID(walls); w++ {
			s.Host(w)
			for i := 0; i < posts; i++ {
				if _, err := s.Author(w, strings.Repeat("post ", 1+i%30), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range fields {
				if _, err := s.SetField(w, name, Field{Value: "plain", At: 1, Writer: w}); err != nil {
					t.Fatal(err)
				}
			}
		}
		buf := new(bytes.Buffer)
		save := func() {
			buf.Reset()
			if err := s.Save(buf); err != nil {
				t.Fatal(err)
			}
		}
		save()
		return testing.AllocsPerRun(5, save), buf.Len()
	}
	for _, c := range []struct {
		walls, posts int
		fields       []string
	}{
		{32, 400, []string{"bio", "name"}}, // many posts
		{20000, 0, nil},                    // many empty walls
	} {
		small, _ := allocs(2, min(c.posts, 10), c.fields...)
		large, n := allocs(c.walls, c.posts, c.fields...)
		if n < 8*snapshotChunk {
			t.Fatalf("%d walls of %d posts: snapshot is %d bytes, want many chunks", c.walls, c.posts, n)
		}
		if large != small || large > 4 {
			t.Errorf("Save into a reused buffer allocated %v times for a %d-byte snapshot of %d walls and %v for 2 walls; want the same few", large, n, c.walls, small)
		}
	}
}
