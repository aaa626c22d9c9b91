package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// snapshot is the serialized form of a Store, as Load parses it.
type snapshot struct {
	Node  NodeID         `json:"node"`
	Walls []wallSnapshot `json:"walls"`
}

type wallSnapshot struct {
	Owner  NodeID           `json:"owner"`
	Posts  []Post           `json:"posts"`
	Fields map[string]Field `json:"fields"`
	// AuthorSeq preserves this node's own authoring counter for the wall so
	// a restarted node never reuses post IDs.
	AuthorSeq uint64 `json:"authorSeq"`
}

// snapshotChunk is the size of the one buffer Save encodes into and of the
// writes it makes, the last excepted.
const snapshotChunk = 64 << 10

// Save writes the full store state as JSON. The snapshot is canonical: walls
// in ID order, posts in rendering order, field names sorted, and byte for
// byte what encoding/json's Encoder with a one-space indent produces for the
// snapshot type, so equal stores save to equal bytes. The store is
// read-locked until w has taken the last chunk.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, snapshotChunk)
	e := snapshotEncoder{w: bw, buf: bw.AvailableBuffer()}
	err := e.store(s)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	return nil
}

// snapshotEncoder appends the snapshot to the free space of a bufio.Writer's
// buffer — the append-then-Write use AvailableBuffer exists for — so what
// fits is encoded in place and never copied.
type snapshotEncoder struct {
	w   *bufio.Writer
	buf []byte // w's free space, holding what was appended since the last commit
}

// commit hands what was appended to w. It is due after every post and
// field, the pieces whose length the data decides: one that outgrew the free
// space was appended to a copy, which w takes chunk by chunk.
func (e *snapshotEncoder) commit() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.w.AvailableBuffer()
	return err
}

func (e *snapshotEncoder) lit(s string) { e.buf = append(e.buf, s...) }
func (e *snapshotEncoder) i64(v int64)  { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *snapshotEncoder) u64(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

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

// str appends s as a JSON string. A string of plain bytes is quoted here;
// any other goes through encoding/json, so escaping is its escaping.
func (e *snapshotEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainASCII[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// store appends the whole snapshot; the caller holds s.mu.
func (e *snapshotEncoder) store(s *Store) error {
	e.lit("{\n \"node\": ")
	e.i64(int64(s.node))
	owners := s.wallsLocked()
	if len(owners) == 0 {
		e.lit(",\n \"walls\": null")
	} else {
		e.lit(",\n \"walls\": [")
		for i, owner := range owners {
			if i > 0 {
				e.lit(",")
			}
			if err := e.wall(s.walls[owner], s.authorSeq[owner]); err != nil {
				return err
			}
		}
		e.lit("\n ]")
	}
	e.lit("\n}\n")
	return e.commit()
}

func (e *snapshotEncoder) wall(w *Wall, authorSeq uint64) error {
	e.lit("\n  {\n   \"owner\": ")
	e.i64(int64(w.Owner))
	if len(w.timeline) == 0 {
		e.lit(",\n   \"posts\": []")
	} else {
		e.lit(",\n   \"posts\": [")
		for i := range w.timeline {
			if i > 0 {
				e.lit(",")
			}
			e.post(&w.timeline[i])
			if err := e.commit(); err != nil {
				return err
			}
		}
		e.lit("\n   ]")
	}
	if len(w.fields) == 0 {
		e.lit(",\n   \"fields\": {}")
	} else {
		e.lit(",\n   \"fields\": {")
		names := make([]string, 0, len(w.fields))
		for name := range w.fields {
			names = append(names, name)
		}
		slices.Sort(names)
		for i, name := range names {
			if i > 0 {
				e.lit(",")
			}
			e.field(name, w.fields[name])
			if err := e.commit(); err != nil {
				return err
			}
		}
		e.lit("\n   }")
	}
	e.lit(",\n   \"authorSeq\": ")
	e.u64(authorSeq)
	e.lit("\n  }")
	return nil
}

func (e *snapshotEncoder) post(p *Post) {
	e.lit("\n    {\n     \"id\": {\n      \"author\": ")
	e.i64(int64(p.ID.Author))
	e.lit(",\n      \"seq\": ")
	e.u64(p.ID.Seq)
	e.lit("\n     },\n     \"wall\": ")
	e.i64(int64(p.Wall))
	e.lit(",\n     \"body\": ")
	e.str(p.Body)
	e.lit(",\n     \"createdAt\": ")
	e.i64(p.CreatedAt)
	e.lit("\n    }")
}

func (e *snapshotEncoder) field(name string, f Field) {
	e.lit("\n    ")
	e.str(name)
	e.lit(": {\n     \"value\": ")
	e.str(f.Value)
	e.lit(",\n     \"at\": ")
	e.i64(f.At)
	e.lit(",\n     \"writer\": ")
	e.i64(int64(f.Writer))
	e.lit("\n    }")
}

// Load restores a store from a snapshot written by Save.
func Load(r io.Reader) (*Store, error) {
	var snap snapshot
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store load: %w", err)
	}
	s := New(snap.Node)
	for _, ws := range snap.Walls {
		s.Host(ws.Owner)
		if _, err := s.MergeDelta(ws.Owner, ws.Posts, ws.Fields); err != nil {
			return nil, fmt.Errorf("store load: %w", err)
		}
		s.mu.Lock()
		if ws.AuthorSeq > s.authorSeq[ws.Owner] {
			s.authorSeq[ws.Owner] = ws.AuthorSeq
		}
		s.mu.Unlock()
	}
	return s, nil
}
