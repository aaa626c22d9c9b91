package trace

import (
	"math"
	"sync"

	"dosn/internal/fault"
	"dosn/internal/obs"
	"dosn/internal/socialgraph"
)

const dayMinutes = daySeconds / 60

// noCenter is the ActivityCenters entry of a user who created no activity:
// there is nothing to center a window on.
const noCenter int16 = -1

// centerChunk is the user granularity of the parallel column fill. Every
// chunk writes a disjoint range of the column, so its bytes are identical for
// any worker count.
const centerChunk = 512

// faultCenterChunk sits inside a column-fill worker, per claimed chunk.
var faultCenterChunk = fault.NewSite("trace.center-chunk")

// Execution-only telemetry: how many center columns were built. One per
// dataset that a FixedLength or RandomLength table was ever built on.
var obsCenterColumns = obs.C("trace.center_columns_built")

// unitCircle holds, for each minute of the day, the point the circular mean
// sums for an activity at that minute.
type unitCircle [dayMinutes]struct{ cos, sin float64 }

var theUnitCircle = sync.OnceValue(func() *unitCircle {
	var t unitCircle
	for m := range t {
		th := 2 * math.Pi * float64(m) / dayMinutes
		t[m].cos, t[m].sin = math.Cos(th), math.Sin(th)
	}
	return &t
})

// ActivityCenters returns, per user, the minute of the day the paper's
// FixedLength and RandomLength models (§IV-C) center the user's online window
// on: the circular mean of the minutes at which the user created activities,
// or a negative value for a user who created none. Perfectly balanced
// activity (two opposite minutes, say) has no mean direction; the first
// activity's minute stands in.
//
// The column is a property of the trace alone, so it is built once per
// dataset, on the first request — over up to `workers` workers, which never
// affects its bytes — and dropped with the CSR indexes when the trace is
// mutated. Concurrent first requests share one build. The returned slice is
// the dataset's own and must not be modified. A failed fill (a worker's
// panic, an injected fault) is re-raised as a panic on the calling goroutine
// and leaves no column behind.
func (d *Dataset) ActivityCenters(workers int) []int16 {
	d.centersMu.Lock()
	defer d.centersMu.Unlock()
	if d.centers != nil {
		return d.centers
	}
	col := make([]int16, d.NumUsers())
	circle := theUnitCircle()
	err := fault.Chunks(len(col), centerChunk, workers, func(next func() (lo, hi int, ok bool)) error {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			if err := faultCenterChunk.InjectSeeded(int64(lo)); err != nil {
				return err
			}
			for u := lo; u < hi; u++ {
				col[u] = d.activityCenter(socialgraph.UserID(u), circle)
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	obsCenterColumns.Inc()
	d.centers = col
	return col
}

// activityCenter is one entry of the ActivityCenters column.
func (d *Dataset) activityCenter(u socialgraph.UserID, circle *unitCircle) int16 {
	acts := d.CreatedIdx(u)
	if len(acts) == 0 {
		return noCenter
	}
	var sx, sy float64
	for _, k := range acts {
		p := &circle[d.MinuteOfDayAt(int(k))]
		sx += p.cos
		sy += p.sin
	}
	if math.Hypot(sx, sy) < 1e-9*float64(len(acts)) {
		//dosn:boundschecked a minute of the day, < 1440
		return int16(d.MinuteOfDayAt(int(acts[0])))
	}
	th := math.Atan2(sy, sx)
	m := int(math.Round(th / (2 * math.Pi) * dayMinutes))
	if m < 0 {
		m += dayMinutes
	}
	//dosn:boundschecked reduced modulo 1440
	return int16(m % dayMinutes)
}
