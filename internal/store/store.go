// Package store implements the replicated profile storage of the OSN node
// runtime: per-wall post logs summarized by version vectors for delta-based
// anti-entropy, and last-writer-wins profile fields for the semi-private
// profile part the paper's §II-B2 describes. All operations are idempotent
// and commutative, giving the eventual consistency the paper argues is
// adequate for decentralized OSNs (§II-B1).
//
// A wall keeps its n posts in the two orders the protocol asks for, both
// maintained on insert, so no read sorts or scans:
//
//   - Add is a binary search in the author's log (the idempotence check) and
//     two appends when posts arrive in order — O(log n), amortized; a post
//     that arrives out of order is inserted in place, O(n) moves. It also
//     keeps the author's digest entry, the count of sequence numbers held
//     from 1 without a gap; each post moves that count past itself once.
//   - MissingFrom is one binary search per author plus a copy of the k
//     posts it returns: O(a·log n + k) for a authors.
//   - Posts is a copy of the rendering order: O(n).
//   - Save streams that order through an append encoder: O(bytes written),
//     one fixed-size buffer, no copy of the posts.
//
// One anti-entropy round for a wall is a pair of calls, from which SyncInto
// and the TCP node (package wire) both replicate. Delta, the read side, returns the posts a digest lacks and the
// wall's fields under one read lock. MergeDelta, the merge side, inserts
// every post idempotently and every field by LWW under one write lock; a
// delta holding a post of another wall is rejected whole before anything is
// touched. It reports the new posts at the front of the caller's slice, so
// what the caller does with them runs after the lock is released.
package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"dosn/internal/vclock"
)

// NodeID identifies users/nodes; it matches socialgraph.UserID.
type NodeID = int32

// PostID uniquely identifies a wall post by its author and the author's
// per-wall sequence number.
type PostID struct {
	Author NodeID `json:"author"`
	Seq    uint64 `json:"seq"`
}

// Post is one wall activity (a wall post or a tweet landing on a profile).
type Post struct {
	ID PostID `json:"id"`
	// Wall is the profile the post belongs to.
	Wall NodeID `json:"wall"`
	// Body is the content.
	Body string `json:"body"`
	// CreatedAt is the creation instant in simulated minutes (or any
	// monotone clock agreed by the deployment).
	CreatedAt int64 `json:"createdAt"`
}

// Field is a last-writer-wins profile attribute value.
type Field struct {
	Value string `json:"value"`
	// At is the write timestamp; Writer breaks timestamp ties so replicas
	// converge deterministically.
	At     int64  `json:"at"`
	Writer NodeID `json:"writer"`
}

// newer reports whether f wins over o under LWW. Ties resolve by writer and
// finally by value, so the order is total and replicas converge even when
// two writes share a timestamp and writer.
func (f Field) newer(o Field) bool {
	if f.At != o.At {
		return f.At > o.At
	}
	if f.Writer != o.Writer {
		return f.Writer > o.Writer
	}
	return f.Value > o.Value
}

// authorLog is one author's posts on a wall in sequence order, the order
// anti-entropy reads: the holder of digest entry (author, seq) holds every
// post up to seq, so it can lack only posts in the suffix after seq. It is
// never empty.
type authorLog struct {
	author NodeID
	posts  []Post
	// held is the largest s such that sequence numbers 1..s are all here:
	// the author's digest entry.
	held uint64
}

// after returns the posts with a sequence number above seq.
func (l *authorLog) after(seq uint64) []Post {
	ps := l.posts
	if ps[len(ps)-1].ID.Seq <= seq {
		return nil
	}
	return ps[sort.Search(len(ps), func(i int) bool { return ps[i].ID.Seq > seq }):]
}

// rendersBefore reports whether a precedes b in wall rendering order:
// (CreatedAt, Author, Seq). Post IDs are unique on a wall, so the order is
// total there.
func rendersBefore(a, b *Post) bool {
	if a.CreatedAt != b.CreatedAt {
		return a.CreatedAt < b.CreatedAt
	}
	if a.ID.Author != b.ID.Author {
		return a.ID.Author < b.ID.Author
	}
	return a.ID.Seq < b.ID.Seq
}

// Wall is the replicated state of one profile: its post log and fields.
type Wall struct {
	Owner NodeID
	// authors holds every post once, grouped by author in author order.
	authors []authorLog
	// timeline holds every post once more, in rendering order.
	timeline []Post
	fields   map[string]Field
}

// NewWall returns an empty wall for the owner.
func NewWall(owner NodeID) *Wall {
	return &Wall{Owner: owner, fields: make(map[string]Field)}
}

// Add inserts a post idempotently and returns whether it was new. The first
// post stored under an ID wins; a later one with the same ID is dropped
// whatever it carries.
func (w *Wall) Add(p Post) bool {
	a := sort.Search(len(w.authors), func(i int) bool { return w.authors[i].author >= p.ID.Author })
	if a == len(w.authors) || w.authors[a].author != p.ID.Author {
		w.authors = slices.Insert(w.authors, a, authorLog{author: p.ID.Author})
	}
	l := &w.authors[a]
	if n := len(l.posts); n == 0 || l.posts[n-1].ID.Seq < p.ID.Seq {
		l.posts = append(l.posts, p)
	} else {
		i := sort.Search(n, func(i int) bool { return l.posts[i].ID.Seq >= p.ID.Seq })
		if l.posts[i].ID.Seq == p.ID.Seq {
			return false
		}
		l.posts = slices.Insert(l.posts, i, p)
	}
	if p.ID.Seq == l.held+1 {
		// The posts after 1..held run from index held (one further when a
		// sequence-0 post leads); p may close a gap below a run of them.
		i := l.held
		if l.posts[0].ID.Seq == 0 {
			i++
		}
		for ; i < uint64(len(l.posts)) && l.posts[i].ID.Seq == l.held+1; i++ {
			l.held++
		}
	}
	if n := len(w.timeline); n == 0 || rendersBefore(&w.timeline[n-1], &p) {
		w.timeline = append(w.timeline, p)
	} else {
		i := sort.Search(n, func(i int) bool { return rendersBefore(&p, &w.timeline[i]) })
		w.timeline = slices.Insert(w.timeline, i, p)
	}
	return true
}

// Len returns the number of posts on the wall.
func (w *Wall) Len() int { return len(w.timeline) }

// Digest returns the wall's version vector: for each author the largest s
// such that the author's sequence numbers 1..s are all stored. A post held
// above a gap does not count, so a peer's MissingFrom resends it with the
// gap's posts, and Add drops it again. The caller owns the result.
func (w *Wall) Digest() vclock.Clock {
	d := make(vclock.Clock, len(w.authors))
	for i := range w.authors {
		l := &w.authors[i]
		// Observe, not assignment: sequence 0 is a clock's "nothing seen" and
		// gets no entry.
		d.Observe(l.author, l.held)
	}
	return d
}

// MissingFrom returns the posts above the given digest's entry for each
// author, in (Author, Seq) order: every post its holder may lack. This is
// the anti-entropy delta.
func (w *Wall) MissingFrom(d vclock.Clock) []Post {
	// Counted first: the delta is then one exact allocation however many
	// authors contribute to it.
	n := 0
	for i := range w.authors {
		l := &w.authors[i]
		n += len(l.after(d.Get(l.author)))
	}
	if n == 0 {
		return nil
	}
	out := make([]Post, 0, n)
	for i := range w.authors {
		l := &w.authors[i]
		out = append(out, l.after(d.Get(l.author))...)
	}
	return out
}

// Posts returns all posts sorted by (CreatedAt, ID) — the wall rendering
// order. The caller owns the result.
func (w *Wall) Posts() []Post {
	out := make([]Post, len(w.timeline))
	copy(out, w.timeline)
	return out
}

// SetField applies a LWW write; it returns whether the value now stored
// changed.
func (w *Wall) SetField(name string, f Field) bool {
	cur, ok := w.fields[name]
	if ok && !f.newer(cur) {
		return false
	}
	w.fields[name] = f
	return true
}

// Fields returns a copy of all fields.
func (w *Wall) Fields() map[string]Field {
	out := make(map[string]Field, len(w.fields))
	for k, v := range w.fields {
		out[k] = v
	}
	return out
}

// Store is a node's collection of wall replicas (its own wall plus the walls
// it hosts for friends). It is safe for concurrent use: the TCP node serves
// sync sessions from multiple peers.
type Store struct {
	mu    sync.RWMutex
	node  NodeID
	walls map[NodeID]*Wall
	// seq numbers this node assigned per wall, for authoring new posts.
	authorSeq map[NodeID]uint64
}

// New returns an empty store for the node.
func New(node NodeID) *Store {
	return &Store{
		node:      node,
		walls:     make(map[NodeID]*Wall),
		authorSeq: make(map[NodeID]uint64),
	}
}

// Node returns the owning node's ID.
func (s *Store) Node() NodeID { return s.node }

// Host ensures the store replicates the given wall.
func (s *Store) Host(owner NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.walls[owner]; !ok {
		s.walls[owner] = NewWall(owner)
	}
}

// Hosts reports whether the store replicates the wall.
func (s *Store) Hosts(owner NodeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.walls[owner]
	return ok
}

// Walls lists the hosted walls in ID order.
func (s *Store) Walls() []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wallsLocked()
}

// wallsLocked returns hosted wall IDs in sorted order; callers must hold mu.
func (s *Store) wallsLocked() []NodeID {
	out := make([]NodeID, 0, len(s.walls))
	for w := range s.walls {
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

// ErrNotHosted is returned when the store does not replicate a wall.
type ErrNotHosted struct{ Wall NodeID }

func (e *ErrNotHosted) Error() string {
	return fmt.Sprintf("store: wall %d not hosted here", e.Wall)
}

// Author creates a new post by this node on the given wall (which must be
// hosted locally — the author first writes to his own replica or to a
// replica he fetched).
func (s *Store) Author(wall NodeID, body string, at int64) (Post, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.walls[wall]
	if !ok {
		return Post{}, &ErrNotHosted{Wall: wall}
	}
	s.authorSeq[wall]++
	p := Post{
		ID:        PostID{Author: s.node, Seq: s.authorSeq[wall]},
		Wall:      wall,
		Body:      body,
		CreatedAt: at,
	}
	w.Add(p)
	return p, nil
}

// Apply inserts a replicated post; it returns whether it was new.
func (s *Store) Apply(p Post) (bool, error) {
	n, err := s.MergeDelta(p.Wall, []Post{p}, nil)
	return n == 1, err
}

// read runs f on a hosted wall under the read lock.
func (s *Store) read(wall NodeID, f func(w *Wall)) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.walls[wall]
	if !ok {
		return &ErrNotHosted{Wall: wall}
	}
	f(w)
	return nil
}

// Delta is the read side of an anti-entropy round: the posts of a hosted
// wall that the holder of digest d lacks, in (Author, Seq) order, and the
// wall's fields, nil when it has none. The caller owns both.
func (s *Store) Delta(wall NodeID, d vclock.Clock) (posts []Post, fields map[string]Field, err error) {
	err = s.read(wall, func(w *Wall) {
		posts = w.MissingFrom(d)
		if len(w.fields) > 0 {
			fields = w.Fields()
		}
	})
	return posts, fields, err
}

// MergeDelta is the merge side of an anti-entropy round. It moves the posts
// that were new, in their given order, to the front of posts and returns
// how many there are.
func (s *Store) MergeDelta(wall NodeID, posts []Post, fields map[string]Field) (int, error) {
	for _, p := range posts {
		if p.Wall != wall {
			return 0, fmt.Errorf("store: delta for wall %d holds post %v of wall %d", wall, p.ID, p.Wall)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.walls[wall]
	if !ok {
		return 0, &ErrNotHosted{Wall: wall}
	}
	n := 0
	for i, p := range posts {
		// Keep authoring sequence ahead of anything seen, so a node that
		// re-hosts its own history never reuses an ID.
		if p.ID.Author == s.node && p.ID.Seq > s.authorSeq[wall] {
			s.authorSeq[wall] = p.ID.Seq
		}
		if w.Add(p) {
			posts[n], posts[i] = p, posts[n]
			n++
		}
	}
	for name, f := range fields {
		w.SetField(name, f)
	}
	return n, nil
}

// Digest returns the version vector of a hosted wall.
func (s *Store) Digest(wall NodeID) (d vclock.Clock, err error) {
	err = s.read(wall, func(w *Wall) { d = w.Digest() })
	return d, err
}

// MissingFrom returns the posts of a hosted wall the given digest lacks.
func (s *Store) MissingFrom(wall NodeID, d vclock.Clock) ([]Post, error) {
	posts, _, err := s.Delta(wall, d)
	return posts, err
}

// Posts returns a hosted wall's posts in rendering order.
func (s *Store) Posts(wall NodeID) (ps []Post, err error) {
	err = s.read(wall, func(w *Wall) { ps = w.Posts() })
	return ps, err
}

// SetField applies an LWW profile-field write to a hosted wall.
func (s *Store) SetField(wall NodeID, name string, f Field) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.walls[wall]
	if !ok {
		return false, &ErrNotHosted{Wall: wall}
	}
	return w.SetField(name, f), nil
}

// Fields returns a hosted wall's profile fields.
func (s *Store) Fields(wall NodeID) (fs map[string]Field, err error) {
	err = s.read(wall, func(w *Wall) { fs = w.Fields() })
	return fs, err
}

// SyncInto runs one anti-entropy round from s into dst — s's Delta for dst's
// digest, merged by dst — for every wall both host, and returns the number
// of posts new at dst. Fields go s into dst only; a caller that wants both
// stores equal calls it in each direction.
func (s *Store) SyncInto(dst *Store) int {
	transferred := 0
	for _, wall := range s.Walls() {
		if !dst.Hosts(wall) {
			continue
		}
		// Both stores host the wall, no wall is ever dropped, and a Delta
		// holds only its own wall's posts: none of these calls can fail.
		d, _ := dst.Digest(wall)
		posts, fields, _ := s.Delta(wall, d)
		if len(posts) == 0 && len(fields) == 0 {
			continue
		}
		n, _ := dst.MergeDelta(wall, posts, fields)
		transferred += n
	}
	return transferred
}
