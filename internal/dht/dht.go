// Package dht implements the DHT-based storage architecture family the paper
// frames its friend-replication study against: a deterministic Chord-style
// key ring whose nodes are the trace's users, plus profile-placement
// strategies that put replicas on ring successors instead of friends.
//
// Two placement strategies are provided (see placement.go): RandomDHT places
// a profile on the plain successor list of its key, the DECENT-style
// configuration where storage location is independent of the social graph;
// SocialDHT re-ranks a successor-candidate window by social proximity and
// schedule overlap, the Nasir-style socially-aware variant. Both implement
// replica.Policy, so the existing sweep engine evaluates the paper's four
// efficiency metrics over DHT replica groups unchanged — and the Architecture
// interface (arch.go) puts them and the classic friend-replica policies
// behind one switchable axis.
//
// Everything is deterministic: ring IDs are splitmix64 hashes of the user,
// positions are totally ordered by (id, user), and lookups are pure
// functions of the ring, so construction and routing are bit-identical
// across worker counts and invocation orders.
package dht

import (
	"fmt"
	"math"
	"sort"

	"dosn/internal/mathrand"
	"dosn/internal/socialgraph"
)

// DefaultBits is the default ring-identifier width. 32 bits keeps collision
// probability negligible at paper scale (~14k nodes) while bounding finger
// tables at 32 entries per node.
const DefaultBits = 32

// Config parameterizes ring construction.
type Config struct {
	// Bits is the ring-identifier width in [8, 64]; 0 means DefaultBits.
	Bits int
}

func (c Config) fill() (Config, error) {
	if c.Bits == 0 {
		c.Bits = DefaultBits
	}
	if c.Bits < 8 || c.Bits > 64 {
		return c, fmt.Errorf("dht: ring bits %d outside [8, 64]", c.Bits)
	}
	return c, nil
}

// Ring is an immutable Chord-style key ring over users [0, n). Build one
// with BuildRing; all methods are read-only and safe for concurrent use.
type Ring struct {
	bits int
	mask uint64
	// ids and users are parallel, sorted by (id, user): position p on the
	// ring is the node users[p] with identifier ids[p].
	ids   []uint64
	users []socialgraph.UserID
	// pos[u] is the ring position of user u.
	pos []int32
	// fingers[p][i] is the position of successor(ids[p] + 2^i): the classic
	// Chord finger table, used only for hop counting — lookups themselves
	// binary-search the sorted id slice.
	fingers [][]int32
}

// BuildRing constructs the ring for users 0..n-1. The layout depends only on
// (n, cfg): it is bit-identical across processes and worker counts.
func BuildRing(n int, cfg Config) (*Ring, error) {
	cfg, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("dht: ring needs at least one node, got %d", n)
	}
	if n > math.MaxInt32 {
		// Ring positions (pos, fingers) are int32; more nodes would wrap
		// them into corrupt cross-node references.
		return nil, fmt.Errorf("dht: %d nodes exceed the int32 position space", n)
	}
	r := &Ring{
		bits:  cfg.Bits,
		ids:   make([]uint64, n),
		users: make([]socialgraph.UserID, n),
		pos:   make([]int32, n),
	}
	if cfg.Bits == 64 {
		r.mask = ^uint64(0)
	} else {
		r.mask = uint64(1)<<uint(cfg.Bits) - 1
	}
	order := make([]int32, n)
	for u := 0; u < n; u++ {
		r.ids[u] = mathrand.Mix(0, nodeDomain, uint64(u)) & r.mask
		order[u] = int32(u)
	}
	// Total order by (id, user): hash collisions (possible at small Bits)
	// resolve deterministically.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if r.ids[a] != r.ids[b] {
			return r.ids[a] < r.ids[b]
		}
		return a < b
	})
	sortedIDs := make([]uint64, n)
	for p, u := range order {
		sortedIDs[p] = r.ids[u]
		r.users[p] = u
		r.pos[u] = int32(p)
	}
	r.ids = sortedIDs
	r.buildFingers()
	return r, nil
}

// hash domains separate node placement from profile keys, so a profile's key
// never trivially coincides with its owner's node identifier. Both hashes
// lead with a 0 word: every pinned ring position and key depends on it.
const (
	nodeDomain = 0x6e6f6465 // "node"
	keyDomain  = 0x6b6579   // "key"
)

func (r *Ring) buildFingers() {
	n := len(r.ids)
	r.fingers = make([][]int32, n)
	flat := make([]int32, n*r.bits)
	for p := 0; p < n; p++ {
		row := flat[p*r.bits : (p+1)*r.bits]
		for i := 0; i < r.bits; i++ {
			target := (r.ids[p] + uint64(1)<<uint(i)) & r.mask
			row[i] = int32(r.successorPos(target))
		}
		r.fingers[p] = row
	}
}

// NumNodes returns the number of ring nodes.
func (r *Ring) NumNodes() int { return len(r.users) }

// Key returns the ring point of u's profile key (a different hash domain
// than node placement, as in a real DHT where keys hash content, not hosts).
func (r *Ring) Key(u socialgraph.UserID) uint64 {
	return mathrand.Mix(0, keyDomain, uint64(u)) & r.mask
}

// successorPos returns the position of the first node whose id is >= key in
// clockwise order, wrapping past the largest id back to position 0.
func (r *Ring) successorPos(key uint64) int {
	p := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= key })
	if p == len(r.ids) {
		return 0
	}
	return p
}

// SuccessorsOf returns up to k successor candidates for owner's profile key,
// excluding the owner (the owner always stores his own profile; a DHT
// placement chooses the *additional* hosts).
func (r *Ring) SuccessorsOf(owner socialgraph.UserID, k int) []socialgraph.UserID {
	if k <= 0 {
		return nil
	}
	return r.appendSuccessors(make([]socialgraph.UserID, 0, min(k, len(r.users)-1)), owner, k)
}

// appendSuccessors appends SuccessorsOf(owner, k) to dst: the walk a
// placement runs into its pooled window buffer.
func (r *Ring) appendSuccessors(dst []socialgraph.UserID, owner socialgraph.UserID, k int) []socialgraph.UserID {
	n := len(r.users)
	k = min(k, n-1)
	p := r.successorPos(r.Key(owner))
	for i, added := 0, 0; i < n && added < k; i++ {
		if u := r.users[(p+i)%n]; u != owner {
			dst = append(dst, u)
			added++
		}
	}
	return dst
}

// steps returns the number of clockwise single-successor steps from position
// `from` to position `to` — the successor-list walk length between them.
func (r *Ring) steps(from, to int) int {
	n := len(r.users)
	return ((to-from)%n + n) % n
}

// HopCount returns the number of routing hops a Chord greedy lookup from
// `from` takes to reach the node responsible for key: closest-preceding-
// finger hops plus the final successor hop. A node resolving a key it is
// itself responsible for takes 0 hops. Bounded by O(log n) in expectation
// and by the ring size in the worst case.
func (r *Ring) HopCount(from socialgraph.UserID, key uint64) int {
	hops, _ := r.walk(from, key)
	return hops
}

// walk performs the greedy Chord lookup and returns the number of hops the
// query is forwarded and the position it stops at, successorPos(key). The
// loop runs in position space — each iteration strictly shrinks the
// clockwise distance to the destination, so it terminates even when hash
// collisions make ring identifiers non-unique (possible at small Bits).
func (r *Ring) walk(from socialgraph.UserID, key uint64) (hops, at int) {
	n := len(r.users)
	dest := r.successorPos(key)
	cur := int(r.pos[from])
	for cur != dest {
		remaining := r.steps(cur, dest)
		// Forward to the farthest finger that does not overshoot the
		// destination; the immediate successor (one step) always qualifies.
		// Finger position distances are nondecreasing in the finger index,
		// so the first non-overshooting finger from the top is the farthest.
		next := (cur + 1) % n
		row := r.fingers[cur]
		for i := r.bits - 1; i >= 0; i-- {
			f := int(row[i])
			if d := r.steps(cur, f); d > 1 && d < remaining {
				next = f
				break
			}
		}
		cur = next
		hops++
	}
	return hops, cur
}
