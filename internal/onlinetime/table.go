package onlinetime

import (
	"sync"
	"sync/atomic"

	"dosn/internal/interval"
	"dosn/internal/socialgraph"
)

// Table is the arena-backed dense schedule store: one day-bitmap row per
// user, all rows living in a single contiguous allocation
// (interval.BitmapWords words — 184 bytes — per user, ~18 MB flat at 100k
// users). It is the schedule representation: engines keep one table per
// (dataset, model, repetition) and hand policies, metrics and the protocol
// runtime O(1) row views.
//
// Rows are mutable through Bitmap; the engines treat a built table as
// read-only and share it across workers.
type Table struct {
	rows []interval.Bitmap
}

// NewTable returns an empty-schedule table for the given number of users,
// allocating the whole arena in one piece.
func NewTable(users int) *Table {
	if users < 0 {
		users = 0
	}
	return &Table{rows: make([]interval.Bitmap, users)}
}

// NumUsers returns the number of rows.
func (t *Table) NumUsers() int { return len(t.rows) }

// Bitmap returns the dense schedule row of user u as an O(1) view into the
// arena, or nil when u is out of range. The view aliases the table; callers
// on shared tables must treat it as read-only.
//
//dosn:hotpath
func (t *Table) Bitmap(u socialgraph.UserID) *interval.Bitmap {
	if u < 0 || int(u) >= len(t.rows) {
		return nil
	}
	return &t.rows[u]
}

// Bitmaps returns the whole arena as a user-indexed bitmap slice — the form
// replica.Input.Bitmaps and the metric kernels consume. No copying: the
// slice is the table's backing storage.
func (t *Table) Bitmaps() []interval.Bitmap { return t.rows }

// MemoryBytes returns the size of the arena in bytes.
func (t *Table) MemoryBytes() int {
	return len(t.rows) * interval.BitmapWords * 8
}

// buildChunk is the user-range granularity of the parallel phase-2 build.
// Chunk boundaries depend only on the user count, and every chunk writes a
// disjoint arena row range, so the table bytes are identical for any worker
// count.
const buildChunk = 512

// forEachRowRange runs fn over [0, users) split into fixed chunks on a
// bounded worker pool. fn must only touch state owned by its range. With
// workers <= 1 (or a single chunk) it runs inline, allocating nothing.
func forEachRowRange(users, workers int, fn func(lo, hi int)) {
	forEachRowRangeIn(0, users, workers, fn)
}

// forEachRowRangeIn is forEachRowRange over the user range [lo, hi) — the
// per-shard form the shard-by-shard schedule builds use. Chunk boundaries
// depend only on the range, and every chunk writes a disjoint arena row
// range, so the table bytes are identical for any worker count.
func forEachRowRangeIn(lo, hi, workers int, fn func(lo, hi int)) {
	users := hi - lo
	nChunks := (users + buildChunk - 1) / buildChunk
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		if users > 0 {
			fn(lo, hi)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1))
				if ci >= nChunks {
					return
				}
				clo := lo + ci*buildChunk
				fn(clo, min(clo+buildChunk, hi))
			}
		}()
	}
	wg.Wait()
}
