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
//
// A w with a Grow(int) method, as *bytes.Buffer and *strings.Builder have,
// is grown once, before anything is encoded, by the snapshot's length as the
// structure, the digit counts and the string lengths give it: exact when
// every string is plain text, a lower bound otherwise (escaping only
// lengthens a string), so an in-memory snapshot is sized once instead of
// doubling up to its size.
func (s *Store) Save(w io.Writer) error {
	if err := saveSite.Inject(); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(s.snapshotLen())
	}
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

// The snapshot's fixed text: everything the encoder appends besides the
// numbers and strings. snapshotLen counts the same pieces.
const (
	storeOpen   = "{\n \"node\": "
	wallsNull   = ",\n \"walls\": null"
	wallsOpen   = ",\n \"walls\": ["
	wallsClose  = "\n ]"
	storeClose  = "\n}\n"
	wallOpen    = "\n  {\n   \"owner\": "
	postsEmpty  = ",\n   \"posts\": []"
	postsOpen   = ",\n   \"posts\": ["
	postsClose  = "\n   ]"
	fieldsEmpty = ",\n   \"fields\": {}"
	fieldsOpen  = ",\n   \"fields\": {"
	fieldsClose = "\n   }"
	wallSeq     = ",\n   \"authorSeq\": "
	wallClose   = "\n  }"
	comma       = ","

	postAuthor    = "\n    {\n     \"id\": {\n      \"author\": "
	postSeq       = ",\n      \"seq\": "
	postWall      = "\n     },\n     \"wall\": "
	postBody      = ",\n     \"body\": "
	postCreatedAt = ",\n     \"createdAt\": "
	postClose     = "\n    }"
	fieldName     = "\n    "
	fieldValue    = ": {\n     \"value\": "
	fieldAt       = ",\n     \"at\": "
	fieldWriter   = ",\n     \"writer\": "
	fieldClose    = "\n    }"

	// postText and fieldText are one post's and one field's fixed text,
	// the quotes around their strings included.
	postText  = len(postAuthor+postSeq+postWall+postBody+postCreatedAt+postClose) + len(`""`)
	fieldText = len(fieldName+fieldValue+fieldAt+fieldWriter+fieldClose) + 2*len(`""`)
)

// snapshotLen is the length of the snapshot Save writes for s, from the
// structure, the digit counts and the string lengths alone: it reads no
// string's bytes. It is exact when every string is plain text and a lower
// bound otherwise. The caller holds s.mu.
func (s *Store) snapshotLen() int {
	n := len(storeOpen) + intLen(int64(s.node)) + len(storeClose)
	if len(s.walls) == 0 {
		return n + len(wallsNull)
	}
	n += len(wallsOpen) + len(wallsClose) + (len(s.walls)-1)*len(comma)
	for owner, w := range s.walls {
		n += len(wallOpen) + intLen(int64(w.Owner)) + len(wallSeq) + uintLen(s.authorSeq[owner]) + len(wallClose)
		if len(w.timeline) == 0 {
			n += len(postsEmpty)
		} else {
			n += len(postsOpen) + len(postsClose) + len(w.timeline)*len(comma) - len(comma)
			for i := range w.timeline {
				n += postLen(&w.timeline[i])
			}
		}
		if len(w.fields) == 0 {
			n += len(fieldsEmpty)
		} else {
			n += len(fieldsOpen) + len(fieldsClose) + len(w.fields)*len(comma) - len(comma)
			for name, f := range w.fields {
				n += fieldLen(name, f)
			}
		}
	}
	return n
}

// postLen and fieldLen are the lengths of one post's and one field's text,
// exact for plain strings and a lower bound otherwise.
func postLen(p *Post) int {
	return postText + intLen(int64(p.ID.Author)) + uintLen(p.ID.Seq) + intLen(int64(p.Wall)) + len(p.Body) + intLen(p.CreatedAt)
}

func fieldLen(name string, f Field) int {
	return fieldText + len(name) + len(f.Value) + intLen(f.At) + intLen(int64(f.Writer))
}

// uintLen is the number of decimal digits of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// intLen is the length of v in decimal, its sign included.
func intLen(v int64) int {
	if v < 0 {
		return 1 + uintLen(uint64(-v)) // -v wraps for the minimum, whose uint64 is still its magnitude
	}
	return uintLen(uint64(v))
}

// snapshotEncoder appends the snapshot to the free space of a bufio.Writer's
// buffer — the append-then-Write use AvailableBuffer exists for — so what
// fits is encoded in place and never copied.
type snapshotEncoder struct {
	jsonx.Encoder // Buf is w's free space, holding what was appended since the last commit
	w             *bufio.Writer
	names         []string // a wall's field names, sorted
}

// pieceSlack bounds the fixed text appended between two reservations, which
// come before every wall, post and field: a wall's opening or closing text
// with its owner or author sequence, and the end of the snapshot.
const pieceSlack = 256

// reserve makes room in the free space for a piece of length n (a post or a
// field; 0 for a wall's own text) and the fixed text after it, before it is
// appended: it hands what was appended to w and, if the rest of w's buffer
// is shorter, flushes the buffer. A piece longer than the buffer, or one
// whose escaped strings outgrow n, is appended to a copy, which w takes
// chunk by chunk.
func (e *snapshotEncoder) reserve(n int) error {
	if n += pieceSlack; cap(e.Buf)-len(e.Buf) >= n {
		return nil
	}
	err := e.commit()
	if err == nil && e.w.Available() < n {
		err = e.w.Flush()
		e.Buf = e.w.AvailableBuffer()
	}
	return err
}

// commit hands what was appended to w.
func (e *snapshotEncoder) commit() error {
	_, err := e.w.Write(e.Buf)
	e.Buf = e.w.AvailableBuffer()
	return err
}

// store appends the whole snapshot; the caller holds s.mu.
func (e *snapshotEncoder) store(s *Store) error {
	e.Lit(storeOpen)
	e.Int(int64(s.node))
	owners := s.wallsLocked()
	if len(owners) == 0 {
		e.Lit(wallsNull)
	} else {
		e.Lit(wallsOpen)
		for i, owner := range owners {
			if err := e.reserve(0); err != nil {
				return err
			}
			if i > 0 {
				e.Lit(comma)
			}
			if err := e.wall(s.walls[owner], s.authorSeq[owner]); err != nil {
				return err
			}
		}
		e.Lit(wallsClose)
	}
	e.Lit(storeClose)
	return e.commit()
}

func (e *snapshotEncoder) wall(w *Wall, authorSeq uint64) error {
	e.Lit(wallOpen)
	e.Int(int64(w.Owner))
	if len(w.timeline) == 0 {
		e.Lit(postsEmpty)
	} else {
		e.Lit(postsOpen)
		for i := range w.timeline {
			if err := e.reserve(len(comma) + postLen(&w.timeline[i])); err != nil {
				return err
			}
			if i > 0 {
				e.Lit(comma)
			}
			e.post(&w.timeline[i])
		}
		e.Lit(postsClose)
	}
	if len(w.fields) == 0 {
		e.Lit(fieldsEmpty)
	} else {
		e.Lit(fieldsOpen)
		e.names = slices.Grow(e.names[:0], len(w.fields))
		for name := range w.fields {
			e.names = append(e.names, name)
		}
		slices.Sort(e.names)
		for i, name := range e.names {
			if err := e.reserve(len(comma) + fieldLen(name, w.fields[name])); err != nil {
				return err
			}
			if i > 0 {
				e.Lit(comma)
			}
			e.field(name, w.fields[name])
		}
		e.Lit(fieldsClose)
	}
	e.Lit(wallSeq)
	e.Uint(authorSeq)
	e.Lit(wallClose)
	return nil
}

func (e *snapshotEncoder) post(p *Post) {
	e.Lit(postAuthor)
	e.Int(int64(p.ID.Author))
	e.Lit(postSeq)
	e.Uint(p.ID.Seq)
	e.Lit(postWall)
	e.Int(int64(p.Wall))
	e.Lit(postBody)
	e.Str(p.Body)
	e.Lit(postCreatedAt)
	e.Int(p.CreatedAt)
	e.Lit(postClose)
}

func (e *snapshotEncoder) field(name string, f Field) {
	e.Lit(fieldName)
	e.Str(name)
	e.Lit(fieldValue)
	e.Str(f.Value)
	e.Lit(fieldAt)
	e.Int(f.At)
	e.Lit(fieldWriter)
	e.Int(int64(f.Writer))
	e.Lit(fieldClose)
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
