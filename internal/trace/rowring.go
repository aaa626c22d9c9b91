package trace

import (
	"dosn/internal/fault"
	"dosn/internal/mathrand"
	"dosn/internal/socialgraph"
)

// The synthesis row loop runs as two stages over a ring of preallocated
// chunks. The draw stage owns the generator and makes every draw of every
// row in the contract order: per user with someone to address, the
// permutation of his targets, then per activity the Zipf draw, the minute,
// the day and the second. The resolve stage turns the draws into rows: the
// Zipf search, the receiver, the filter and remap, the generation buffers.
// Only the draw stage touches the stream and only the resolve stage writes
// genRows, so the bytes are the serial loop's whatever the overlap.

// ringChunks is the number of chunks in the ring: one being drawn, one being
// resolved, and slack for the two stages' jitter.
const ringChunks = 4

// faultResolveChunk sits in the resolve stage, once per chunk of draws (key:
// the chunk's index), so tests can prove that a stage failing while its peer
// waits on the ring ends the synthesis instead of hanging it.
var faultResolveChunk = fault.NewSite("trace.resolve-chunk")

// chunkRows is the number of activities a chunk holds. It is a variable only
// so that tests can put chunk boundaries inside a creator's activities.
var chunkRows = 4096

// drawChunk holds the draws of a run of activities in generation order.
// spans says whose they are: each span is one creator's next acts
// activities. A span whose creator differs from the one before it (in this
// chunk or the last) starts that creator, and its permutation is the next
// len(targets) entries of perm; a span of the same creator continues him
// where the previous chunk cut him off.
type drawChunk struct {
	spans []drawSpan
	perm  []int32
	zipf  []float64 // zipfDraw's draw (0, no draw, for a creator with one target)
	day   []uint8
	sec   []int32 // second of day
}

type drawSpan struct {
	user, acts int32
}

// rowRing is the ring between the two stages. The draw stage closes full
// when it stops, whether done or failed, so the resolve stage never waits on
// a chunk that will not come; the resolve stage closes done when it stops,
// so the draw stage never waits on a chunk that will not come back. A
// panicking stage thus ends its peer, and fault.Parallel's join returns.
type rowRing struct {
	full chan *drawChunk // drawn chunks, in generation order
	free chan *drawChunk // resolved chunks, back to the draw stage
	done chan struct{}
	rows int // activities a chunk holds
}

// newRowRing preallocates the ring's chunks for a synthesis of total
// activities: a chunk holds chunkRows of them, or all of them if fewer. A
// chunk's permutation buffer holds the longest target list, so any
// creator's permutation fits in an empty chunk.
func newRowRing(maxTargets int, total int64) *rowRing {
	r := &rowRing{
		full: make(chan *drawChunk, ringChunks),
		free: make(chan *drawChunk, ringChunks),
		done: make(chan struct{}),
		rows: int(max(1, min(int64(chunkRows), total))),
	}
	for range ringChunks {
		r.free <- &drawChunk{
			spans: make([]drawSpan, 0, r.rows),
			perm:  make([]int32, 0, max(r.rows, maxTargets)),
			zipf:  make([]float64, 0, r.rows),
			day:   make([]uint8, 0, r.rows),
			sec:   make([]int32, 0, r.rows),
		}
	}
	return r
}

// next hands the filled chunk c (if any) to the resolve stage and returns an
// empty one, or nil once the resolve stage has stopped.
func (r *rowRing) next(c *drawChunk) *drawChunk {
	if c != nil {
		r.full <- c // never blocks: full has room for every chunk
	}
	select {
	case c = <-r.free:
	case <-r.done:
		return nil
	}
	c.spans, c.perm, c.zipf, c.day, c.sec = c.spans[:0], c.perm[:0], c.zipf[:0], c.day[:0], c.sec[:0]
	return c
}

// draw is the draw stage: every draw of the row loop, in user-ID order, into
// the ring. A creator the filter drops still draws (the stream is the
// contract), into columns of its own that are never sent.
func (r *rowRing) draw(rng *mathrand.Rand, g *socialgraph.Graph, counts, homes []int, remap []socialgraph.UserID, cfg SynthConfig) {
	defer close(r.full)
	c := r.next(nil)
	if c == nil {
		return
	}
	dropZipf, dropDay, dropSec := make([]float64, r.rows), make([]uint8, r.rows), make([]int32, r.rows)
	var dropPerm []int32
	for u, n := range counts {
		m := len(activityTargets(g, socialgraph.UserID(u)))
		if m == 0 {
			continue
		}
		if n == 0 || (remap != nil && remap[u] < 0) {
			if cap(dropPerm) < m {
				dropPerm = make([]int32, m)
			}
			permInto(rng, dropPerm[:m])
			for lo := 0; lo < n; lo += r.rows {
				k := min(n-lo, r.rows)
				drawActivities(rng, dropZipf, dropDay[:k], dropSec, m, homes[u], cfg)
			}
			continue
		}
		if len(c.day) == cap(c.day) || len(c.perm)+m > cap(c.perm) {
			if c = r.next(c); c == nil {
				return
			}
		}
		// Each user has his own stable favorite order; without the shuffle
		// the Zipf skew would systematically favor low user IDs (friend
		// lists are ID-sorted) and bias the MostActive policy globally.
		p := len(c.perm)
		c.perm = c.perm[:p+m]
		permInto(rng, c.perm[p:])
		//dosn:boundschecked u < the user count, under int32
		user := int32(u)
		for left := n; ; {
			lo := len(c.day)
			k := min(left, cap(c.day)-lo)
			c.zipf, c.day, c.sec = c.zipf[:lo+k], c.day[:lo+k], c.sec[:lo+k]
			drawActivities(rng, c.zipf[lo:], c.day[lo:], c.sec[lo:], m, homes[u], cfg)
			//dosn:boundschecked k <= the chunk's rows
			c.spans = append(c.spans, drawSpan{user: user, acts: int32(k)})
			if left -= k; left == 0 {
				break
			}
			if c = r.next(c); c == nil {
				return
			}
		}
	}
	if len(c.spans) > 0 {
		r.full <- c
	}
}

// drawActivities makes the draws of len(day) activities of one creator with
// m targets and the given home minute, in the contract order, into the
// three columns. Int31n(n) is Intn(n)'s draw for any n below 2³¹, one call
// shallower.
func drawActivities(rng *mathrand.Rand, zipf []float64, day []uint8, sec []int32, m, home int, cfg SynthConfig) {
	zipf, sec = zipf[:len(day)], sec[:len(day)]
	//dosn:boundschecked Validate caps Days at maxDays = 256
	days := int32(cfg.Days)
	for i := range day {
		zipf[i] = zipfDraw(rng, cfg.AffinityZipfS, m)
		minute := sampleMinute(rng, home, cfg.UniformFraction, cfg.DiurnalSigmaMinutes)
		//dosn:boundschecked the draw is below days <= maxDays = 256, so it fits a byte
		day[i] = uint8(rng.Int31n(days))
		//dosn:boundschecked minute < 1440, so the second of day is < 86400
		sec[i] = int32(minute)*60 + rng.Int31n(60)
	}
}

// resolve is the resolve stage: it turns the ring's chunks into rows of gen,
// in order, and returns how many it kept. It stops at the first chunk whose
// failpoint fires and returns the error.
func (r *rowRing) resolve(gen *genRows, g *socialgraph.Graph, remap []socialgraph.UserID, s float64) (pos int, err error) {
	defer close(r.done)
	zipf := newZipfSampler(s)
	var own, perm []int32 // the current creator's permutation; own keeps it past its chunk
	var targets []socialgraph.UserID
	cur := int32(-1)
	chunk := int64(0)
	for c := range r.full {
		if err := faultResolveChunk.InjectSeeded(chunk); err != nil {
			return pos, err
		}
		chunk++
		i, p := 0, 0
		for _, sp := range c.spans {
			if sp.user != cur {
				cur = sp.user
				targets = activityTargets(g, socialgraph.UserID(cur))
				perm = c.perm[p : p+len(targets)]
				p += len(targets)
			}
			first := pos
			for end := i + int(sp.acts); i < end; i++ {
				recv := targets[perm[zipf.rank(c.zipf[i], len(targets))]]
				if remap != nil {
					if recv = remap[recv]; recv < 0 {
						continue
					}
				}
				gen.receiver[pos] = recv
				gen.day[pos], gen.second[pos] = c.day[i], c.sec[i]
				gen.dayCounts[c.day[i]]++
				pos++
			}
			nu := socialgraph.UserID(cur)
			if remap != nil {
				nu = remap[cur]
			}
			//dosn:boundschecked pos <= total <= MaxActivities
			gen.runs[nu] += int32(pos - first)
		}
		own = append(own[:0], perm...)
		perm = own
		r.free <- c // never blocks: free has room for every chunk
	}
	return pos, nil
}
