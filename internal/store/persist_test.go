package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"dosn/internal/jsonx"
)

// saveBoth returns the snapshot from Save and from the encoding/json oracle.
func saveBoth(t testing.TB, s *Store) (got, want []byte) {
	t.Helper()
	var g, w bytes.Buffer
	if err := s.Save(&g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := saveEncodingJSON(s, &w); err != nil {
		t.Fatalf("oracle save: %v", err)
	}
	return g.Bytes(), w.Bytes()
}

// The snapshot's bytes are the format: Save must write exactly what
// encoding/json writes for the snapshot types, whatever the store holds and
// whether or not the writer can be grown ahead of the encoding.
func TestSaveMatchesEncodingJSON(t *testing.T) {
	f := func(seed int64) bool {
		s := randomStore(rand.New(rand.NewSource(seed)), false)
		got, want := saveBoth(t, s) // a *bytes.Buffer, which Save grows
		var sb strings.Builder
		var plain bytes.Buffer
		for _, w := range []io.Writer{&sb, struct{ io.Writer }{&plain}} {
			if err := s.Save(w); err != nil {
				t.Fatalf("Save into %T: %v", w, err)
			}
		}
		if !bytes.Equal(got, want) || sb.String() != string(want) || !bytes.Equal(plain.Bytes(), want) {
			t.Logf("seed %d:\nSave:\n%s\nencoding/json:\n%s", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The forms the random stores reach only by luck or not at all: a store with
// no wall ("walls": null), a wall with no post and no field ("posts": [],
// "fields": {}), and strings longer than the encoder's whole chunk, plain
// and escaped.
func TestSaveFixedCases(t *testing.T) {
	empty := New(3)
	hosting := New(3)
	hosting.Host(9)
	long := New(3)
	long.Host(3)
	for _, body := range []string{strings.Repeat("x", 2*snapshotChunk), strings.Repeat("<", 2*snapshotChunk), "short"} {
		if _, err := long.Author(3, body, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Store{empty, hosting, long} {
		got, want := saveBoth(t, s)
		if !bytes.Equal(got, want) {
			t.Errorf("Save:\n%.400s\nencoding/json:\n%.400s", got, want)
		}
	}
	got, _ := saveBoth(t, empty)
	if string(got) != "{\n \"node\": 3,\n \"walls\": null\n}\n" {
		t.Errorf("empty store saved as %q", got)
	}
}

// escaped reports whether encoding/json writes s as more than its bytes in
// quotes, as it does for every string that is not plain text.
func escaped(s string) bool {
	q, _ := json.Marshal(s) // a string always marshals
	return len(q) != len(s)+2
}

// snapshotLenHolds reports whether snapshotLen keeps Save's promise for the
// snapshot snap of s: its exact length when no string of s is escaped, less
// than it otherwise (an escape always lengthens a string).
func snapshotLenHolds(s *Store, snap []byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	esc := false
	for _, w := range s.walls {
		for _, p := range w.timeline {
			esc = esc || escaped(p.Body)
		}
		for name, f := range w.fields {
			esc = esc || escaped(name) || escaped(f.Value)
		}
	}
	if esc {
		return s.snapshotLen() < len(snap)
	}
	return s.snapshotLen() == len(snap)
}

// plainTwin is s with every string byte replaced by a lower-case letter:
// the same walls and numbers, and strings of the same lengths (field names
// that collide become one), all plain.
func plainTwin(s *Store) *Store {
	letters := func(str string) string {
		b := []byte(str)
		for i, c := range b {
			b[i] = 'a' + c%26
		}
		return string(b)
	}
	twin := New(s.node)
	for owner, w := range s.walls {
		twin.Host(owner)
		for _, p := range w.timeline {
			p.Body = letters(p.Body)
			if _, err := twin.Apply(p); err != nil {
				panic(err)
			}
		}
		for name, f := range w.fields {
			f.Value = letters(f.Value)
			if _, err := twin.SetField(owner, letters(name), f); err != nil {
				panic(err)
			}
		}
		twin.authorSeq[owner] = s.authorSeq[owner]
	}
	return twin
}

// The size Save grows a writer by, over random stores with hostile strings
// and numbers at both ends of their ranges: a strict lower bound for a store
// with an escaped string, and exact for its plain twin.
func TestSnapshotLenBoundsSave(t *testing.T) {
	f := func(seed int64) bool {
		s := randomStore(rand.New(rand.NewSource(seed)), false)
		for _, st := range []*Store{s, plainTwin(s)} {
			got, _ := saveBoth(t, st)
			if !snapshotLenHolds(st, got) {
				st.mu.RLock()
				t.Logf("seed %d: snapshotLen %d, snapshot %d bytes:\n%s", seed, st.snapshotLen(), len(got), got)
				st.mu.RUnlock()
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSaveLoadSaveByteEqual(t *testing.T) {
	f := func(seed int64) bool {
		first, _ := saveBoth(t, randomStore(rand.New(rand.NewSource(seed)), true))
		back, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Logf("seed %d: Load: %v", seed, err)
			return false
		}
		second, _ := saveBoth(t, back)
		if !bytes.Equal(first, second) {
			t.Logf("seed %d:\nfirst:\n%s\nsecond:\n%s", seed, first, second)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzSaveString checks the string path of the snapshot encoder — the only
// part of the format that depends on content — as a post body, a field name
// and a field value.
func FuzzSaveString(f *testing.F) {
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s := New(1)
		s.Host(1)
		if _, err := s.Author(1, body, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SetField(1, body, Field{Value: body, At: 1, Writer: 1}); err != nil {
			t.Fatal(err)
		}
		got, want := saveBoth(t, s)
		if !bytes.Equal(got, want) {
			t.Errorf("Save:\n%s\nencoding/json:\n%s", got, want)
		}
		if !snapshotLenHolds(s, got) {
			s.mu.RLock()
			defer s.mu.RUnlock()
			t.Errorf("snapshotLen %d for a snapshot of %d bytes:\n%s", s.snapshotLen(), len(got), got)
		}
	})
}

var errDiskFull = errors.New("disk full")

// failingWriter takes room bytes, then fails. With short set it fails the
// way a broken writer does: fewer bytes than asked, no error.
type failingWriter struct {
	room  int
	short bool
	buf   bytes.Buffer
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.room {
		w.room -= len(p)
		return w.buf.Write(p)
	}
	n, _ := w.buf.Write(p[:w.room])
	w.room = 0
	if w.short {
		return n, nil
	}
	return n, errDiskFull
}

// A write error anywhere in the stream must come back from Save: a snapshot
// is many chunks now, and a dropped error would leave a truncated state file
// reported as saved.
func TestSaveSurfacesWriteErrors(t *testing.T) {
	s := New(1)
	s.Host(1)
	s.Host(2)
	for i := 0; i < 1200; i++ {
		if _, err := s.Author(NodeID(1+i%2), strings.Repeat("x", 100), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SetField(2, "bio", Field{Value: "v", At: 1, Writer: 1}); err != nil {
		t.Fatal(err)
	}
	want, _ := saveBoth(t, s)
	if len(want) < 3*snapshotChunk {
		t.Fatalf("snapshot is %d bytes, want several chunks", len(want))
	}
	for _, room := range []int{0, 1, snapshotChunk / 2, snapshotChunk, len(want) / 2, len(want) - 1} {
		w := &failingWriter{room: room}
		err := s.Save(w)
		if !errors.Is(err, errDiskFull) || !strings.HasPrefix(err.Error(), "store save: ") {
			t.Errorf("room %d: err = %v, want store save: … %v", room, err, errDiskFull)
		}
		if !bytes.HasPrefix(want, w.buf.Bytes()) {
			t.Errorf("room %d: the bytes written are not a prefix of the snapshot", room)
		}
	}
	if err := s.Save(&failingWriter{room: len(want) / 2, short: true}); err == nil || !strings.HasPrefix(err.Error(), "store save: ") {
		t.Errorf("short write: err = %v, want store save: …", err)
	}
	w := &failingWriter{room: len(want)}
	if err := s.Save(w); err != nil || !bytes.Equal(w.buf.Bytes(), want) {
		t.Errorf("a writer with exactly enough room: err = %v, %d of %d bytes", err, w.buf.Len(), len(want))
	}
}

// snapshotSeeds are inputs for the decode differential: whole snapshots,
// and the forms the parser leaves to encoding/json or must refuse itself.
func snapshotSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{
		[]byte(`{"node":1,"walls":null}`),
		[]byte(`{"node":1,"walls":[]}` + "\n" + `{"node":2}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"posts":[],"fields":{},"authorSeq":0}]}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"posts":[{"id":{"author":1,"seq":1},"wall":1,"body":"x","createdAt":-0}]}]}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"posts":[{"id":{"author":1,"seq":1},"wall":2}]}]}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"fields":{"a":{"value":"v"},"a":{"at":2}}}]}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"fields":{"\u0061":{"value":"é\n\ud800"}}}]}`),
		[]byte(`{"Node":7,"WALLS":[]}`),
		[]byte(`{"node":1,"node":2}`),
		[]byte(`{"node":1.0}`),
		[]byte(`{"node":1e2}`),
		[]byte(`{"node":01}`),
		[]byte(`{"node":2147483648}`),
		[]byte(`{"node":-2147483648,"walls":[{"owner":1,"authorSeq":18446744073709551615}]}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"authorSeq":18446744073709551616}]}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"authorSeq":-1}]}`),
		[]byte(`{"node":"1"}`),
		[]byte(`{"node":1,"extra":[1,{"a":null}]}`),
		[]byte(`{"node":1,"walls":[{"owner":1,"posts":[{"body":"unterminated`),
		[]byte(`{"node":1,"walls":[1,]}`),
		[]byte(` ` + "\t\r\n"),
		[]byte(`[]`),
		[]byte(`null`),
		[]byte(`not json`),
		{},
	}
	for seed := int64(1); seed <= 4; seed++ {
		var buf bytes.Buffer
		if err := randomStore(rand.New(rand.NewSource(seed)), seed%2 == 0).Save(&buf); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes(), buf.Bytes()[:buf.Len()/2])
	}
	return seeds
}

// FuzzLoad holds Load's decoding to encoding/json's on arbitrary bytes: the
// same snapshot value (nil and empty told apart) or the same error text,
// whether the bytes come in one read or one at a time, and the same store
// from Load.
func FuzzLoad(f *testing.F) {
	for _, s := range snapshotSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		want, werr := decodeEncodingJSON(bytes.NewReader(in))
		for _, r := range []io.Reader{bytes.NewReader(in), iotest.OneByteReader(bytes.NewReader(in))} {
			got, err := decodeSnapshot(r)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("decode %q:\n got %+v, %v\nwant %+v, %v", in, got, err, want, werr)
			}
		}
		st, err := Load(bytes.NewReader(in))
		var oracle *Store
		if werr == nil {
			oracle, werr = restore(&want)
		} else {
			werr = fmt.Errorf("store load: %w", werr)
		}
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("Load %q: %v, want %v", in, err, werr)
		}
		if err == nil {
			got, _ := saveBoth(t, st)
			want, _ := saveBoth(t, oracle)
			if !bytes.Equal(got, want) {
				t.Fatalf("Load %q restored\n%s\nwant\n%s", in, got, want)
			}
		}
	})
}

// A saved snapshot is read by the parser alone, whatever its strings hold.
// (Valid UTF-8 only: two field names that differ in invalid bytes save as
// one name, a duplicate key, which the parser leaves to encoding/json.)
func TestLoadParsesSavedSnapshotsItself(t *testing.T) {
	f := func(seed int64) bool {
		s := randomStore(rand.New(rand.NewSource(seed)), true)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		p := jsonx.NewParser(bytes.NewReader(buf.Bytes()), 64)
		var snap snapshot
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if parseSnapshot(p, &snap); p.Declined() {
			t.Logf("seed %d: declined\n%s", seed, buf.Bytes())
			return false
		}
		want, err := decodeEncodingJSON(bytes.NewReader(buf.Bytes()))
		return err == nil && reflect.DeepEqual(snap, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Load returns once the snapshot's closing brace has arrived, with the
// writer still open: it never waits for EOF.
func TestLoadReturnsBeforeWriterCloses(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(3)), true)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	go pw.Write(bytes.TrimSuffix(buf.Bytes(), []byte("\n"))) // no newline, no close
	done := make(chan error, 1)
	go func() {
		back, err := Load(pr)
		if err == nil {
			got, _ := saveBoth(t, back)
			if !bytes.Equal(got, buf.Bytes()) {
				err = errors.New("loaded a different store")
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Load waited for the writer to close")
	}
}
