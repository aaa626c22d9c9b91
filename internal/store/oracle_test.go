package store

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"sort"
	"unicode/utf8"

	"dosn/internal/vclock"
)

// mapWall is the post log as it was before the ordered log: a hash map
// walked and sorted on every read. The ordered log must agree with it
// exactly.
type mapWall struct {
	posts map[PostID]Post
}

func newMapWall() *mapWall {
	return &mapWall{posts: make(map[PostID]Post)}
}

func (w *mapWall) Add(p Post) bool {
	if _, dup := w.posts[p.ID]; dup {
		return false
	}
	w.posts[p.ID] = p
	return true
}

func (w *mapWall) Len() int { return len(w.posts) }

// Digest counts each author's run of sequence numbers up from 1 by lookup.
func (w *mapWall) Digest() vclock.Clock {
	d := vclock.New()
	for id := range w.posts {
		if id.Seq != 1 {
			continue
		}
		s := id.Seq
		for {
			if _, ok := w.posts[PostID{Author: id.Author, Seq: s + 1}]; !ok {
				break
			}
			s++
		}
		d.Observe(id.Author, s)
	}
	return d
}

func (w *mapWall) MissingFrom(d vclock.Clock) []Post {
	var out []Post
	for id, p := range w.posts {
		if id.Seq > d.Get(id.Author) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Author != out[j].ID.Author {
			return out[i].ID.Author < out[j].ID.Author
		}
		return out[i].ID.Seq < out[j].ID.Seq
	})
	return out
}

func (w *mapWall) Posts() []Post {
	out := make([]Post, 0, len(w.posts))
	for _, p := range w.posts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CreatedAt != out[j].CreatedAt {
			return out[i].CreatedAt < out[j].CreatedAt
		}
		if out[i].ID.Author != out[j].ID.Author {
			return out[i].ID.Author < out[j].ID.Author
		}
		return out[i].ID.Seq < out[j].ID.Seq
	})
	return out
}

// saveEncodingJSON is Save as it was: the snapshot types through
// encoding/json with a one-space indent. Its bytes define the format.
func saveEncodingJSON(s *Store, w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := snapshot{Node: s.node}
	for _, owner := range s.wallsLocked() {
		wall := s.walls[owner]
		snap.Walls = append(snap.Walls, wallSnapshot{
			Owner:     owner,
			Posts:     wall.Posts(),
			Fields:    wall.Fields(),
			AuthorSeq: s.authorSeq[owner],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(snap)
}

// decodeEncodingJSON is Load's decode as it was: encoding/json's Decoder
// over a buffered reader. Load must decode what it decodes.
func decodeEncodingJSON(r io.Reader) (snapshot, error) {
	var snap snapshot
	err := json.NewDecoder(bufio.NewReader(r)).Decode(&snap)
	return snap, err
}

// hostile are the pieces random strings are assembled from: what
// encoding/json escapes, what it passes through though plain text does not
// contain it, and (last line) invalid UTF-8, which it replaces.
var hostile = []string{
	"", "plain text", " ", "~", `"`, `\`, `\"`, "<", ">", "&", "</script>",
	"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u00e9", "\u65e5\u672c", "\U0001F600", "\ufffd", `\u0041`,
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80",
}

// randomString joins up to four hostile pieces. With validUTF8 set it leaves
// out the invalid ones, and the string survives Save and Load unchanged.
func randomString(rng *rand.Rand, validUTF8 bool) string {
	var s string
	for i, n := 0, rng.Intn(5); i < n; i++ {
		if p := hostile[rng.Intn(len(hostile))]; !validUTF8 || utf8.ValidString(p) {
			s += p
		}
	}
	return s
}

// randomStore draws a store the way replication fills one: 0–4 walls (none
// is a case), IDs and timestamps of either sign, posts applied out of order
// and twice, sequence holes, the node's own authoring in between, 0–3 fields
// per wall, every string hostile.
func randomStore(rng *rand.Rand, validUTF8 bool) *Store {
	ids := []NodeID{-2147483648, -7, 0, 1, 2, 42, 2147483647}
	s := New(ids[rng.Intn(len(ids))])
	for w, n := 0, rng.Intn(5); w < n; w++ {
		owner := ids[rng.Intn(len(ids))]
		s.Host(owner)
		for i, posts := 0, rng.Intn(12); i < posts; i++ {
			p := Post{
				ID:        PostID{Author: ids[rng.Intn(len(ids))], Seq: uint64(rng.Intn(9))},
				Wall:      owner,
				Body:      randomString(rng, validUTF8),
				CreatedAt: int64(rng.Intn(7)) - 3,
			}
			if rng.Intn(8) == 0 {
				// The ends of the ranges, from an author no store is the node
				// of: its own last sequence number it could not count past.
				p.ID, p.CreatedAt = PostID{Author: 3, Seq: 1<<64 - 1}, -1<<63
			}
			if _, err := s.Apply(p); err != nil {
				panic(err)
			}
			if rng.Intn(4) == 0 {
				if _, err := s.Author(owner, randomString(rng, validUTF8), int64(rng.Intn(7))-3); err != nil {
					panic(err)
				}
			}
		}
		for i, fields := 0, rng.Intn(4); i < fields; i++ {
			f := Field{Value: randomString(rng, validUTF8), At: int64(rng.Intn(5)) - 2, Writer: ids[rng.Intn(len(ids))]}
			if _, err := s.SetField(owner, randomString(rng, validUTF8), f); err != nil {
				panic(err)
			}
		}
	}
	return s
}
