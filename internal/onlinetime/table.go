package onlinetime

import (
	"slices"

	"dosn/internal/fault"
	"dosn/internal/interval"
	"dosn/internal/socialgraph"
)

// Table is the arena-backed dense schedule store: one day-bitmap row per
// user, all rows living in a single contiguous allocation
// (interval.BitmapWords words — 184 bytes — per user, ~18 MB flat at 100k
// users). It is the schedule representation: engines keep one table per
// (dataset, model, repetition) — one for every repetition when the build is
// seed-independent (SeedIndependent) — and hand policies, metrics and the
// protocol runtime O(1) row views.
//
// A table built over a row set (Model.BuildTable) has every other row
// empty; only a reader of those rows alone may be handed it. Rows are
// mutable through Bitmap; the engines treat a built table as read-only and
// share it across workers.
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

// buildChunk is the row granularity of the parallel phase-2 build. Chunk
// boundaries depend only on the user count and the row set, and every chunk
// writes disjoint arena rows, so the table bytes are identical for any
// worker count.
const buildChunk = 512

// faultBuildChunk sits inside a table-build worker, per claimed chunk.
var faultBuildChunk = fault.NewSite("onlinetime.build-chunk")

// fillRows runs fill(u) for every row u in [lo, hi), or only for those the
// row set lists when rows is non-nil (ascending user IDs; nil means every
// row), in fixed chunks of buildChunk filled rows on up to `workers` workers
// (fault.Chunks; one worker fills inline). The failpoint is keyed by each
// chunk's first row. fill must only touch state owned by row u: chunks then
// write disjoint arena rows, so the table bytes are identical for any worker
// count. BuildTable has no error path, so a failed fill — a
// panic on any worker, an injected fault — is re-raised on the calling
// goroutine, where the harness's cell isolation turns it into the cell's
// error.
func fillRows(lo, hi int, rows []socialgraph.UserID, workers int, fill func(u int)) {
	n, row := hi-lo, func(i int) int { return lo + i }
	if rows != nil {
		from, _ := slices.BinarySearch(rows, socialgraph.UserID(lo))
		to, _ := slices.BinarySearch(rows, socialgraph.UserID(hi))
		rows = rows[from:to]
		n, row = len(rows), func(i int) int { return int(rows[i]) }
	}
	err := fault.Chunks(n, buildChunk, workers, func(next func() (lo, hi int, ok bool)) error {
		for clo, chi, ok := next(); ok; clo, chi, ok = next() {
			if err := faultBuildChunk.InjectSeeded(int64(row(clo))); err != nil {
				return err
			}
			for i := clo; i < chi; i++ {
				fill(row(i))
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
}
