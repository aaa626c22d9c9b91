package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"dosn/internal/fault"
	"dosn/internal/jsonx"
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

// saveSite is the failpoint at the start of Save (see internal/fault).
var saveSite = fault.NewSite("store.save")

// snapshotChunk is the size of the one buffer Save encodes into and of the
// writes it makes, the last excepted.
const snapshotChunk = 64 << 10

// Save writes the full store state as JSON. The snapshot is canonical: walls
// in ID order, posts in rendering order, field names sorted, and byte for
// byte what encoding/json's Encoder with a one-space indent produces for the
// snapshot type, so equal stores save to equal bytes. The store is
// read-locked until w has taken the last chunk.
func (s *Store) Save(w io.Writer) error {
	if err := saveSite.Inject(); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, snapshotChunk)
	e := snapshotEncoder{Encoder: jsonx.Encoder{Buf: bw.AvailableBuffer()}, w: bw}
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
	jsonx.Encoder // Buf is w's free space, holding what was appended since the last commit
	w             *bufio.Writer
}

// commit hands what was appended to w. It is due after every post and
// field, the pieces whose length the data decides: one that outgrew the free
// space was appended to a copy, which w takes chunk by chunk.
func (e *snapshotEncoder) commit() error {
	_, err := e.w.Write(e.Buf)
	e.Buf = e.w.AvailableBuffer()
	return err
}

// store appends the whole snapshot; the caller holds s.mu.
func (e *snapshotEncoder) store(s *Store) error {
	e.Lit("{\n \"node\": ")
	e.Int(int64(s.node))
	owners := s.wallsLocked()
	if len(owners) == 0 {
		e.Lit(",\n \"walls\": null")
	} else {
		e.Lit(",\n \"walls\": [")
		for i, owner := range owners {
			if i > 0 {
				e.Lit(",")
			}
			if err := e.wall(s.walls[owner], s.authorSeq[owner]); err != nil {
				return err
			}
		}
		e.Lit("\n ]")
	}
	e.Lit("\n}\n")
	return e.commit()
}

func (e *snapshotEncoder) wall(w *Wall, authorSeq uint64) error {
	e.Lit("\n  {\n   \"owner\": ")
	e.Int(int64(w.Owner))
	if len(w.timeline) == 0 {
		e.Lit(",\n   \"posts\": []")
	} else {
		e.Lit(",\n   \"posts\": [")
		for i := range w.timeline {
			if i > 0 {
				e.Lit(",")
			}
			e.post(&w.timeline[i])
			if err := e.commit(); err != nil {
				return err
			}
		}
		e.Lit("\n   ]")
	}
	if len(w.fields) == 0 {
		e.Lit(",\n   \"fields\": {}")
	} else {
		e.Lit(",\n   \"fields\": {")
		names := make([]string, 0, len(w.fields))
		for name := range w.fields {
			names = append(names, name)
		}
		slices.Sort(names)
		for i, name := range names {
			if i > 0 {
				e.Lit(",")
			}
			e.field(name, w.fields[name])
			if err := e.commit(); err != nil {
				return err
			}
		}
		e.Lit("\n   }")
	}
	e.Lit(",\n   \"authorSeq\": ")
	e.Uint(authorSeq)
	e.Lit("\n  }")
	return nil
}

func (e *snapshotEncoder) post(p *Post) {
	e.Lit("\n    {\n     \"id\": {\n      \"author\": ")
	e.Int(int64(p.ID.Author))
	e.Lit(",\n      \"seq\": ")
	e.Uint(p.ID.Seq)
	e.Lit("\n     },\n     \"wall\": ")
	e.Int(int64(p.Wall))
	e.Lit(",\n     \"body\": ")
	e.Str(p.Body)
	e.Lit(",\n     \"createdAt\": ")
	e.Int(p.CreatedAt)
	e.Lit("\n    }")
}

func (e *snapshotEncoder) field(name string, f Field) {
	e.Lit("\n    ")
	e.Str(name)
	e.Lit(": {\n     \"value\": ")
	e.Str(f.Value)
	e.Lit(",\n     \"at\": ")
	e.Int(f.At)
	e.Lit(",\n     \"writer\": ")
	e.Int(int64(f.Writer))
	e.Lit("\n    }")
}

// Load restores a store from a snapshot written by Save. The snapshot is
// read by jsonx's parser, which reads no further than the snapshot's closing
// brace; a snapshot it declines is decoded by encoding/json instead, so Load
// returns what encoding/json would on every input, errors included.
func Load(r io.Reader) (*Store, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("store load: %w", err)
	}
	return restore(&snap)
}

// decodeSnapshot reads one snapshot value from r.
func decodeSnapshot(r io.Reader) (snapshot, error) {
	var snap snapshot
	size := loadBuf
	if l, ok := r.(interface{ Len() int }); ok && l.Len() > size {
		size = l.Len() // an in-memory snapshot is read into one buffer of its size
	}
	p := jsonx.NewParser(r, size)
	if err := p.Start(); err != nil {
		return snap, err
	}
	if parseSnapshot(p, &snap); !p.Declined() {
		return snap, nil
	}
	snap = snapshot{}
	err := json.NewDecoder(p.Rest()).Decode(&snap)
	return snap, err
}

// restore builds the store a decoded snapshot describes.
func restore(snap *snapshot) (*Store, error) {
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

// loadBuf is the size Load's read buffer starts at, unless the reader
// reports its length. The buffer grows to hold the whole snapshot, which a
// declined parse replays.
const loadBuf = 4 << 10

var (
	snapshotNames = []string{"node", "walls"}
	wallNames     = []string{"owner", "posts", "fields", "authorSeq"}
)

func parseSnapshot(p *jsonx.Parser, snap *snapshot) {
	o := p.Object(snapshotNames)
	for o.Next() {
		switch o.Key {
		case 0:
			snap.Node = p.Int32()
		case 1:
			snap.Walls = jsonx.Slice(p, parseWall)
		}
	}
}

func parseWall(p *jsonx.Parser, w *wallSnapshot) {
	o := p.Object(wallNames)
	for o.Next() {
		switch o.Key {
		case 0:
			w.Owner = p.Int32()
		case 1:
			w.Posts = jsonx.Slice(p, parsePost)
		case 2:
			w.Fields = jsonx.Map(p, parseField)
		case 3:
			w.AuthorSeq = p.Uint64()
		}
	}
}

func parsePost(p *jsonx.Parser, q *Post) {
	p.Post(&q.ID.Author, &q.ID.Seq, &q.Wall, &q.Body, &q.CreatedAt)
}

func parseField(p *jsonx.Parser, f *Field) { p.Field(&f.Value, &f.At, &f.Writer) }
