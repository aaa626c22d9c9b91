// Package osn is the decentralized-OSN protocol runtime: executable
// friend-to-friend profile replication over a discrete-event simulation.
// Nodes follow day-cyclic online schedules, posts are created by friends and
// must land on the profile's replica group ({owner} ∪ replicas), replicas
// exchange deltas by version-vector anti-entropy whenever they are online
// together, and every delivery is measured.
//
// The runtime turns the paper's *analytic* metrics into *measured* ones: the
// mean and maximum delivery delays observed here validate the
// update-propagation-delay graph metric of §II-C3 (which is a worst-case
// bound), and the fraction of posts that land immediately validates
// availability-on-demand-activity.
package osn

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"dosn/internal/desim"
	"dosn/internal/feed"
	"dosn/internal/interval"
	"dosn/internal/obs"
	"dosn/internal/socialgraph"
	"dosn/internal/stats"
	"dosn/internal/store"
)

// Execution-only telemetry; see internal/obs. These are the process-wide
// live counterparts of the per-run Result fields, published on the debug
// endpoint so a long protocol run (or a future networked cluster) can be
// watched while it executes. They never feed back into Result.
var (
	obsPostsCreated     = obs.C("osn.posts_created")
	obsPostsTransferred = obs.C("osn.posts_transferred")
	obsExchanges        = obs.C("osn.exchanges")
	obsReadsTotal       = obs.C("osn.reads_total")
	obsReadsServed      = obs.C("osn.reads_served")
	obsSessions         = obs.C("osn.sessions")
)

// NodeID identifies a node; it matches socialgraph.UserID.
type NodeID = socialgraph.UserID

// PostEvent scripts one wall post: Creator posts on Wall's profile at the
// absolute simulated minute At.
type PostEvent struct {
	At      desim.Time
	Creator NodeID
	Wall    NodeID
	Body    string
}

// ReadEvent scripts one profile read: Reader tries to access Wall's profile
// at the absolute simulated minute At. The read succeeds when any member of
// the wall's replica group is online — the protocol-level measurement of
// the paper's availability-on-demand-time.
type ReadEvent struct {
	At     desim.Time
	Reader NodeID
	Wall   NodeID
}

// Config describes a protocol-runtime experiment.
type Config struct {
	// Schedules is the per-user dense daily online time, indexed by NodeID
	// (the arena rows of an onlinetime.Table).
	Schedules []interval.Bitmap
	// Assignments maps each profile owner to its replica hosts.
	Assignments map[NodeID][]NodeID
	// Days is the simulation horizon.
	Days int
	// Posts are the scripted wall posts.
	Posts []PostEvent
	// Reads are the scripted profile accesses.
	Reads []ReadEvent
	// LossRate injects contact failures: each pairwise exchange (and each
	// outbox delivery attempt) is skipped with this probability.
	LossRate float64
	// DisableEagerPush turns off the propagation rounds a node runs after
	// receiving new data; replicas then exchange only when a session
	// starts. Used by the protocol-design ablation (A4).
	DisableEagerPush bool
	// Seed drives the loss process.
	Seed int64
}

// Errors returned by NewNetwork.
var (
	ErrNoSchedules = errors.New("osn: config needs schedules")
	ErrBadHorizon  = errors.New("osn: config needs Days > 0")
	ErrBadID       = errors.New("osn: node id out of schedule range")
)

// node is one OSN participant.
type node struct {
	id     NodeID
	store  *store.Store
	online bool
	// sched is the node's dense daily schedule; pairwise contact and
	// anti-entropy overlap questions are word-wise bitmap operations.
	sched interval.Bitmap
	// reach is sched with every session extended one minute past its end —
	// the closure the contact-possibility pruning must test, because a
	// session's half-open end instant still exists as an event time at which
	// an abutting peer's session start can fire first (see NewNetwork).
	reach interval.Bitmap
	// schedLen caches sched.Minutes() for the per-day overlap accounting.
	schedLen int
	// sessions is sched's run list: one daily session per interval. Only
	// the nodes a run simulates ever derive it.
	sessions []interval.Interval
	peers    []NodeID // co-online-capable nodes sharing a wall group, sorted
	// outbox holds authored posts waiting for contact with a group member
	// of the target wall.
	outbox []store.Post
	// dirty marks that the node received new data and a propagation round
	// is scheduled.
	dirty bool
}

// delivery tracks the fate of one post.
type delivery struct {
	id        store.PostID
	wall      NodeID
	group     []NodeID
	created   desim.Time
	immediate bool       // some group member was online at creation time
	firstLand desim.Time // -1 until the post lands on a group member
	arrivals  map[NodeID]desim.Time
}

// Result aggregates the measurements of one run.
type Result struct {
	// Posts is the number of scripted posts.
	Posts int
	// DeliveredAll counts posts that reached every group member.
	DeliveredAll int
	// Landed counts posts that reached at least one group member.
	Landed int
	// ImmediateFraction is the protocol-level analogue of
	// availability-on-demand-activity: the fraction of posts created while
	// some group member was online.
	ImmediateFraction float64
	// PairActualHours aggregates, over every (post, group member) arrival,
	// the actual delay from first landing to that member's arrival.
	PairActualHours stats.Welford
	// PairObservedHours is PairActualHours minus the receiver's offline
	// time — the paper's "observed" propagation delay (§II-C3).
	PairObservedHours stats.Welford
	// PostMaxActualHours aggregates, per fully delivered post, the maximum
	// actual delay over the group: directly comparable to the analytic
	// update-propagation-delay metric (its worst-case bound).
	PostMaxActualHours stats.Welford
	// Exchanges counts pairwise anti-entropy exchanges performed.
	Exchanges int
	// PostsTransferred counts post applications that were new at the
	// receiver (a measure of replication traffic).
	PostsTransferred int
	// LostContacts counts exchanges suppressed by loss injection.
	LostContacts int
	// ReadsTotal and ReadsServed count scripted profile accesses and the
	// subset that found a replica online; their ratio is the measured
	// availability-on-demand.
	ReadsTotal  int
	ReadsServed int
}

// Network is a configured protocol-runtime instance. Build with NewNetwork,
// execute with Run. Single-threaded and deterministic.
type Network struct {
	cfg        Config
	sim        *desim.Sim
	rng        *rand.Rand
	nodes      map[NodeID]*node
	nodeOrder  []NodeID
	groups     map[NodeID][]NodeID // wall -> sorted group members
	deliveries []*delivery
	byPost     map[postKey]*delivery
	res        Result
	// authorSeq assigns per-(creator,wall) sequence numbers for posts
	// created by non-hosts while disconnected.
	authorSeq map[[2]NodeID]uint64
}

// NewNetwork validates the config and builds the runtime.
func NewNetwork(cfg Config) (*Network, error) {
	if len(cfg.Schedules) == 0 {
		return nil, ErrNoSchedules
	}
	if cfg.Days <= 0 {
		return nil, ErrBadHorizon
	}
	n := &Network{
		cfg:       cfg,
		sim:       desim.New(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nodes:     make(map[NodeID]*node),
		groups:    make(map[NodeID][]NodeID),
		byPost:    make(map[postKey]*delivery),
		authorSeq: make(map[[2]NodeID]uint64),
	}
	inRange := func(id NodeID) bool { return id >= 0 && int(id) < len(cfg.Schedules) }

	ensure := func(id NodeID) *node {
		if nd, ok := n.nodes[id]; ok {
			return nd
		}
		nd := &node{id: id, store: store.New(store.NodeID(id))}
		n.nodes[id] = nd
		return nd
	}

	// Wall groups: every owner hosts his own wall; replicas host it too.
	// Degenerate replica lists are normalized here, at the single entry
	// point, so nothing downstream ever sees them.
	owners := make([]NodeID, 0, len(cfg.Assignments))
	for owner := range cfg.Assignments {
		owners = append(owners, owner)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, owner := range owners {
		group, err := normalizeGroup(owner, cfg.Assignments[owner], inRange)
		if err != nil {
			return nil, err
		}
		n.groups[owner] = group
		for _, member := range group {
			ensure(member).store.Host(store.NodeID(owner))
		}
	}
	// Creators of posts participate even if they host nothing.
	for _, p := range cfg.Posts {
		if !inRange(p.Creator) || !inRange(p.Wall) {
			return nil, fmt.Errorf("%w: post %d→%d", ErrBadID, p.Creator, p.Wall)
		}
		ensure(p.Creator)
		if _, ok := n.groups[p.Wall]; !ok {
			// A wall without an assignment entry is hosted by its owner
			// alone (replication degree 0).
			n.groups[p.Wall] = []NodeID{p.Wall}
			ensure(p.Wall).store.Host(store.NodeID(p.Wall))
		}
	}
	for _, r := range cfg.Reads {
		if !inRange(r.Reader) || !inRange(r.Wall) {
			return nil, fmt.Errorf("%w: read %d→%d", ErrBadID, r.Reader, r.Wall)
		}
		if _, ok := n.groups[r.Wall]; !ok {
			n.groups[r.Wall] = []NodeID{r.Wall}
			ensure(r.Wall).store.Host(store.NodeID(r.Wall))
		}
	}

	// Peer lists: nodes sharing a wall group.
	peerSets := make(map[NodeID]map[NodeID]bool)
	for _, group := range n.groups {
		for _, a := range group {
			for _, b := range group {
				if a == b {
					continue
				}
				if peerSets[a] == nil {
					peerSets[a] = make(map[NodeID]bool)
				}
				peerSets[a][b] = true
			}
		}
	}
	for id := range n.nodes {
		n.nodeOrder = append(n.nodeOrder, id)
	}
	sort.Slice(n.nodeOrder, func(i, j int) bool { return n.nodeOrder[i] < n.nodeOrder[j] })
	for _, id := range n.nodeOrder {
		nd := n.nodes[id]
		nd.sched = cfg.Schedules[id] // every node ID was range-checked above
		nd.schedLen = nd.sched.Minutes()
		nd.sessions = nd.sched.Set().Intervals()
		// Dilate each session one minute past its half-open end: a node's
		// online flag is still true at its end instant until the offline
		// event fires, and equal-time events run in insertion order, so a
		// peer whose session *starts* exactly at this node's session end can
		// observe it online and exchange. The closure keeps such abutting
		// pairs meetable.
		for _, iv := range nd.sessions {
			nd.reach.AddInterval(interval.Interval{Start: iv.Start, End: iv.End + 1})
		}
	}
	// Peer lists, pruned to pairs that can never be online simultaneously:
	// sessions follow the day-cyclic schedules exactly, so two nodes whose
	// dilated schedules are disjoint (≥1 minute apart everywhere, circularly)
	// can never meet — not even through the end-instant artifact above — and
	// keeping them as peers would only add dead checks to every session
	// start and propagation round. Pruning on the dilated sets cannot change
	// any measurement or random draw: a pruned pair never reaches exchange().
	for id, set := range peerSets {
		nd := n.nodes[id]
		peers := make([]NodeID, 0, len(set))
		for p := range set {
			if nd.reach.Intersects(&n.nodes[p].reach) {
				peers = append(peers, p)
			}
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		nd.peers = peers
	}
	return n, nil
}

// normalizeGroup validates and canonicalizes one wall's replica group:
// out-of-range IDs are rejected with ErrBadID, a replica entry naming the
// owner is dropped (the owner always hosts his own wall — counting him
// twice would inflate the group), duplicate hosts collapse to one, and the
// result is sorted. Without this a degenerate Config.Assignments entry such
// as {owner, r, r} would double-count the pair in every anti-entropy
// exchange and in the delivery ledger's full-group accounting.
func normalizeGroup(owner NodeID, replicas []NodeID, inRange func(NodeID) bool) ([]NodeID, error) {
	if !inRange(owner) {
		return nil, fmt.Errorf("%w: owner %d", ErrBadID, owner)
	}
	group := []NodeID{owner}
	for _, r := range replicas {
		if !inRange(r) {
			return nil, fmt.Errorf("%w: replica %d for owner %d", ErrBadID, r, owner)
		}
		if r != owner {
			group = append(group, r)
		}
	}
	sort.Slice(group, func(i, j int) bool { return group[i] < group[j] })
	return dedupIDs(group), nil
}

func dedupIDs(ids []NodeID) []NodeID {
	if len(ids) < 2 {
		return ids
	}
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// Store exposes a node's store for inspection (tests, examples).
func (n *Network) Store(id NodeID) *store.Store {
	if nd, ok := n.nodes[id]; ok {
		return nd.store
	}
	return nil
}

// Group returns the replica group of a wall (owner first by construction
// only if the owner has the lowest ID; the slice is sorted).
func (n *Network) Group(wall NodeID) []NodeID {
	g := n.groups[wall]
	out := make([]NodeID, len(g))
	copy(out, g)
	return out
}

// Run schedules all session and post events and executes the simulation,
// returning the measurements.
func (n *Network) Run() *Result {
	horizon := desim.Time(n.cfg.Days) * interval.DayMinutes
	// Session events for every node and day.
	for _, id := range n.nodeOrder {
		nd := n.nodes[id]
		for day := 0; day < n.cfg.Days; day++ {
			base := desim.Time(day) * interval.DayMinutes
			for _, iv := range nd.sessions {
				iv := iv
				nd := nd
				_ = n.sim.At(base+desim.Time(iv.Start), func() { n.setOnline(nd, true) })
				_ = n.sim.At(base+desim.Time(iv.End), func() { n.setOnline(nd, false) })
			}
		}
	}
	// Post events.
	for _, p := range n.cfg.Posts {
		p := p
		at := p.At
		if at < 0 {
			continue
		}
		if at >= horizon {
			at = at % horizon
		}
		_ = n.sim.At(at, func() { n.createPost(p) })
	}
	// Read events.
	for _, r := range n.cfg.Reads {
		r := r
		at := r.At
		if at < 0 {
			continue
		}
		if at >= horizon {
			at = at % horizon
		}
		_ = n.sim.At(at, func() { n.serveRead(r) })
	}
	n.sim.Run(horizon)
	n.finalize()
	return &n.res
}

// setOnline flips a node's session state. Coming online triggers outbox
// flush and anti-entropy with every online peer.
func (n *Network) setOnline(nd *node, online bool) {
	if nd.online == online {
		return
	}
	nd.online = online
	if !online {
		return
	}
	obsSessions.Inc()
	n.flushOutbox(nd)
	for _, pid := range nd.peers {
		peer := n.nodes[pid]
		if peer.online {
			n.exchange(nd, peer)
		}
	}
}

// createPost handles a scripted post: the creator either applies it locally
// (if it hosts the wall), hands it to an online group member, or queues it
// in the outbox until contact.
func (n *Network) createPost(p PostEvent) {
	obsPostsCreated.Inc()
	creator := n.nodes[p.Creator]
	group := n.groups[p.Wall]

	key := [2]NodeID{p.Creator, p.Wall}
	n.authorSeq[key]++
	post := store.Post{
		ID:        store.PostID{Author: store.NodeID(p.Creator), Seq: n.authorSeq[key]},
		Wall:      store.NodeID(p.Wall),
		Body:      p.Body,
		CreatedAt: n.sim.Now(),
	}
	d := &delivery{
		id:        post.ID,
		wall:      p.Wall,
		group:     group,
		created:   n.sim.Now(),
		firstLand: -1,
		arrivals:  make(map[NodeID]desim.Time, len(group)),
	}
	n.byPost[postKey{id: post.ID, wall: p.Wall}] = d
	for _, m := range group {
		if n.nodes[m].online {
			d.immediate = true
			break
		}
	}
	n.deliveries = append(n.deliveries, d)

	if creator.store.Hosts(post.Wall) {
		// The creator is himself a replica (or the owner posting on his own
		// wall): the post lands instantly.
		if ok, err := creator.store.Apply(post); err == nil && ok {
			n.recordArrival(creator.id, post)
			n.markDirty(creator)
		}
		return
	}
	creator.outbox = append(creator.outbox, post)
	if creator.online {
		n.flushOutbox(creator)
	}
}

// flushOutbox attempts to hand each queued post to the lowest-ID online
// member of its wall group.
func (n *Network) flushOutbox(nd *node) {
	if len(nd.outbox) == 0 {
		return
	}
	var remaining []store.Post
	for _, post := range nd.outbox {
		target := n.onlineGroupMember(NodeID(post.Wall))
		if target == nil || n.lossy() {
			remaining = append(remaining, post)
			continue
		}
		if ok, err := target.store.Apply(post); err == nil && ok {
			n.res.PostsTransferred++
			obsPostsTransferred.Inc()
			n.recordArrival(target.id, post)
			n.markDirty(target)
		}
	}
	nd.outbox = remaining
}

func (n *Network) onlineGroupMember(wall NodeID) *node {
	for _, m := range n.groups[wall] {
		if nd := n.nodes[m]; nd.online {
			return nd
		}
	}
	return nil
}

// exchange performs bidirectional anti-entropy between two online nodes for
// every wall they both host.
func (n *Network) exchange(a, b *node) {
	if n.lossy() {
		return
	}
	n.res.Exchanges++
	obsExchanges.Inc()
	n.syncDirected(a, b)
	n.syncDirected(b, a)
}

// syncDirected runs one store anti-entropy round from src into dst and books
// every post new at dst.
func (n *Network) syncDirected(src, dst *node) {
	src.store.SyncInto(dst.store, func(_ store.NodeID, fresh []store.Post) {
		for _, p := range fresh {
			n.res.PostsTransferred++
			obsPostsTransferred.Inc()
			n.recordArrival(dst.id, p)
		}
		n.markDirty(dst)
	})
}

// serveRead records whether a scripted profile access found any replica of
// the wall online.
func (n *Network) serveRead(r ReadEvent) {
	n.res.ReadsTotal++
	obsReadsTotal.Inc()
	if n.onlineGroupMember(r.Wall) != nil {
		n.res.ReadsServed++
		obsReadsServed.Inc()
	}
}

// markDirty schedules a propagation round for a node that received new data:
// one simulated minute later it re-exchanges with all online peers, so data
// spreads through an ongoing overlap without waiting for the next session.
func (n *Network) markDirty(nd *node) {
	if nd.dirty || n.cfg.DisableEagerPush {
		return
	}
	nd.dirty = true
	n.sim.After(1, func() {
		nd.dirty = false
		if !nd.online {
			return
		}
		n.flushOutbox(nd)
		for _, pid := range nd.peers {
			peer := n.nodes[pid]
			if peer.online {
				n.exchange(nd, peer)
			}
		}
	})
}

// lossy rolls the loss-injection dice.
func (n *Network) lossy() bool {
	if n.cfg.LossRate <= 0 {
		return false
	}
	if n.cfg.LossRate >= 1 {
		n.res.LostContacts++
		return true
	}
	if n.rng.Float64() < n.cfg.LossRate {
		n.res.LostContacts++
		return true
	}
	return false
}

// postKey identifies a scripted post in the delivery ledger.
type postKey struct {
	id   store.PostID
	wall NodeID
}

// recordArrival updates the delivery ledger when a post lands on a group
// member for the first time.
func (n *Network) recordArrival(at NodeID, p store.Post) {
	d, ok := n.byPost[postKey{id: p.ID, wall: NodeID(p.Wall)}]
	if !ok {
		return
	}
	if _, seen := d.arrivals[at]; seen {
		return
	}
	if d.firstLand < 0 {
		d.firstLand = n.sim.Now()
	}
	d.arrivals[at] = n.sim.Now()
}

// finalize computes the aggregate measurements.
func (n *Network) finalize() {
	n.res.Posts = len(n.deliveries)
	immediate := 0
	for _, d := range n.deliveries {
		if d.immediate {
			immediate++
		}
		if d.firstLand < 0 {
			continue
		}
		n.res.Landed++
		maxActual := 0.0
		complete := true
		for _, m := range d.group {
			arr, ok := d.arrivals[m]
			if !ok {
				complete = false
				continue
			}
			actualMin := float64(arr - d.firstLand)
			offline := float64(arr-d.firstLand) - float64(n.onlineMinutesBetween(m, d.firstLand, arr))
			observedMin := actualMin - offline
			n.res.PairActualHours.Add(actualMin / 60)
			n.res.PairObservedHours.Add(observedMin / 60)
			if actualMin/60 > maxActual {
				maxActual = actualMin / 60
			}
		}
		if complete {
			n.res.DeliveredAll++
			n.res.PostMaxActualHours.Add(maxActual)
		}
	}
	if n.res.Posts > 0 {
		n.res.ImmediateFraction = float64(immediate) / float64(n.res.Posts)
	}
}

// onlineMinutesBetween counts the minutes node id is online in the absolute
// simulated span [from, to). The partial-day remainder is a windowed
// popcount over the node's dense schedule; no window set is materialized.
func (n *Network) onlineMinutesBetween(id NodeID, from, to desim.Time) int64 {
	nd, ok := n.nodes[id]
	if !ok || to <= from {
		return 0
	}
	span := to - from
	fullDays := span / interval.DayMinutes
	total := fullDays * int64(nd.schedLen)
	rem := int(span % interval.DayMinutes)
	if rem > 0 {
		phase := int(from % interval.DayMinutes)
		total += int64(nd.sched.OnesInRange(phase, rem))
	}
	return total
}

// Timeline returns the merged reverse-chronological feed across every wall
// the node hosts (the "feed of updates on friends' profiles" of §II), at
// most limit items. It returns nil for unknown nodes.
func (n *Network) Timeline(id NodeID, limit int) []feed.Item {
	if nd, ok := n.nodes[id]; ok {
		return feed.Timeline(nd.store, limit)
	}
	return nil
}
