package metrics

import (
	"slices"

	"dosn/internal/interval"
	"dosn/internal/mathrand"
	"dosn/internal/socialgraph"
)

// Delivery is the delivery model of the protocol experiment (X1/X2): it
// follows one wall post from its creator through the wall's replica group,
// minute by minute over day-cyclic schedules, and reports the minute each
// member first holds it. Its contact rule:
//
//   - A node is online at minute t when its schedule holds t mod 1440. Its
//     session starts at an online minute whose predecessor is offline, and
//     at every midnight it is online at (midnight counts as a session start).
//   - A creator in the group (the owner on its own wall, or a replica) holds
//     the post from its creation minute, online or not. Any other creator
//     hands it over at the creation minute, if online then, or else at its
//     own later session starts, to the lowest-ID member online at that
//     moment; with none online it keeps the post.
//   - Two members exchange when either one's session starts while the other
//     is online and, with eager push, when a member runs its round one minute
//     after receiving the post and the other is online then. An exchange
//     hands the post from a holder to a member without it.
//   - Within a minute, session starts run first, by node ID: a node sees a
//     lower-ID node as it is at this minute and a higher-ID one as it was at
//     the minute before, so a session ending at t still meets a higher-ID
//     session starting at t. Then the post is created (at its creation
//     minute), then the rounds run in the order of the receipts that
//     scheduled them. A node passes a post it received on to the nodes it
//     meets later in the same minute.
//   - Loss may drop a contact, a hand-over or an exchange, at the minute it
//     would have carried the post.
//
// Each post is followed alone: nothing a node does for another post (a
// round it runs, an outbox it flushes) moves this one. The delays it
// measures check the graph delay metric of §II-C3, a worst-case bound on
// delivery delay.
type Delivery struct {
	// Bitmaps holds the schedules by user ID; an ID outside is never online.
	Bitmaps []interval.Bitmap
	// Horizon is the number of minutes followed, from minute 0.
	Horizon int
	// Eager runs a member's round one minute after it receives the post.
	Eager bool
	Loss  Loss
}

// Loss drops contacts reproducibly: the contact of a and b at minute t
// fails when a hash of (Seed, the pair, t) falls below Rate, whichever way
// round the pair is named and whichever post it would carry.
type Loss struct {
	Rate float64
	Seed int64
}

// Drops reports whether the contact of a and b at minute t fails.
func (l Loss) Drops(a, b socialgraph.UserID, t int) bool {
	if l.Rate <= 0 {
		return false
	}
	if a > b {
		a, b = b, a
	}
	return mathrand.Unit(mathrand.Mix(uint64(l.Seed), uint64(a), uint64(b), uint64(t))) < l.Rate
}

// online reports whether u is online at the absolute minute t.
func (d *Delivery) online(u socialgraph.UserID, t int) bool {
	return t >= 0 && u >= 0 && int(u) < len(d.Bitmaps) && d.Bitmaps[u].Contains(t)
}

// starts reports whether one of u's sessions starts at minute t.
func (d *Delivery) starts(u socialgraph.UserID, t int) bool {
	return d.online(u, t) && (t%interval.DayMinutes == 0 || !d.online(u, t-1))
}

// Arrivals follows a post that creator creates at the absolute minute
// created on a wall whose group (sorted by ID, without duplicates) is group.
// It writes into arr[i] the minute group[i] first holds the post, or -1 if
// it does not within the horizon, and returns the contacts Loss dropped.
func (d *Delivery) Arrivals(group []socialgraph.UserID, creator socialgraph.UserID, created int, arr []int) (dropped int) {
	missing, queued := len(group), true // queued: an outside creator still holds the post
	for i := range arr {
		arr[i] = -1
	}
	var rounds, next []int // members whose rounds run at this minute, at the next
	receive := func(i, t int) {
		arr[i] = t
		missing--
		if d.Eager {
			next = append(next, i)
		}
	}
	meet := func(i, j, t int) {
		switch {
		case (arr[i] < 0) == (arr[j] < 0):
		case d.Loss.Drops(group[i], group[j], t):
			dropped++
		case arr[i] < 0:
			receive(i, t)
		default:
			receive(j, t)
		}
	}
	handOver := func(t int, online func(socialgraph.UserID) bool) {
		for i, m := range group {
			if !online(m) {
				continue
			}
			if d.Loss.Drops(creator, m, t) {
				dropped++
				return
			}
			queued = false
			receive(i, t)
			return
		}
	}
	// seenBy reports u's state as x's session start at minute t sees it.
	seenBy := func(x socialgraph.UserID, t int) func(socialgraph.UserID) bool {
		return func(u socialgraph.UserID) bool {
			if u < x {
				return d.online(u, t)
			}
			return d.online(u, t-1)
		}
	}

	// The nodes in ID order: member indices, and -1 for a creator outside
	// the group.
	creatorAt, member := slices.BinarySearch(group, creator)
	nodes := make([]int, len(group), len(group)+1)
	for i := range nodes {
		nodes[i] = i
	}
	if !member {
		nodes = slices.Insert(nodes, creatorAt, -1)
	}

	for t := created; t < d.Horizon && missing > 0; t++ {
		switch {
		case t == created && member:
			receive(creatorAt, t)
		case t == created && d.online(creator, t):
			handOver(t, func(u socialgraph.UserID) bool { return d.online(u, t) })
		case t > created:
			for _, i := range nodes {
				x := creator
				if i >= 0 {
					x = group[i]
				}
				if !d.starts(x, t) {
					continue
				}
				seen := seenBy(x, t)
				if i < 0 {
					if queued {
						handOver(t, seen)
					}
					continue
				}
				for j, y := range group {
					if j != i && seen(y) {
						meet(i, j, t)
					}
				}
			}
		}
		for _, i := range rounds {
			if !d.online(group[i], t) {
				continue
			}
			for j, y := range group {
				if j != i && d.online(y, t) {
					meet(i, j, t)
				}
			}
		}
		rounds, next = next, rounds[:0]
	}
	return dropped
}
