// Package onlinetime implements the paper's three user online-time models
// (§IV-C). Each model approximates, from a user's activity history, the set
// of minutes of the day during which the user is online:
//
//   - Sporadic: one fixed-length session per activity, with the activity at a
//     random point inside the session (default 20 minutes, the paper's
//     conservative choice).
//   - FixedLength: one continuous daily window of fixed length (the paper
//     uses 2, 4, 6 and 8 hours), centered on the majority of the user's
//     activity times.
//   - RandomLength: like FixedLength, but each user draws his own window
//     length uniformly from [2, 8] hours.
//
// Schedules are day-cyclic; a user's schedule repeats every day, matching
// the paper's 24-hour availability accounting.
//
// # Two-phase builds
//
// The canonical product of a model is a Table: one dense day-bitmap row per
// user in a single flat arena (table.go). BuildTable constructs it in two
// phases:
//
//  1. every random value the model needs is drawn sequentially off the
//     caller's *rand.Rand, for every user, in exactly the per-user,
//     per-activity order the historical Set-emitting build consumed it — so
//     a seed keeps producing byte-identical schedules no matter which rows
//     phase 2 fills or how it is scheduled;
//  2. the bitmaps of the requested rows are built from those values over a
//     worker pool writing disjoint arena rows (deterministic for any worker
//     count). A build given a row set fills only those rows and leaves every
//     other row empty; a nil row set means every row.
//
// A row set serves a caller that knows which rows its readers read: a
// friend-replication sweep reads only its analysed users and their
// candidates, about a fifth of a paper-scale dataset. Whether a build over a row
// set is the same for every seed is one rule, SeedIndependent: a caller
// whose repetitions differ only by seed may then build the table once.
//
// What FixedLength and RandomLength center a window on — "the majority of the
// user's activity times", the circular mean of the minutes at which the user
// created activities — is a property of the trace, not of the model, the
// window length, the seed or the repetition. It is therefore not computed
// here: it is the dataset's ActivityCenters column (package trace), built
// once per dataset on the first build that asks and shared by every later
// table. Phase 1 draws a random center only for the users the column has
// none for; phase 2 sets one window per row.
//
// The table is the only form a schedule takes: policies, metrics and the
// protocol runtime all read its rows; a row's run list (Bitmap.Set) is a
// view derived on demand by the few consumers that walk sessions.
package onlinetime

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dosn/internal/interval"
	"dosn/internal/obs"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// Execution-only telemetry; see internal/obs. Table builds are timed and
// counted — the readings flow out to reports and the debug endpoint, never
// back into schedules.
var (
	obsTablesBuilt = obs.C("onlinetime.tables_built")
	obsRowsBuilt   = obs.C("onlinetime.rows_built")
	obsBuildTimer  = obs.T("onlinetime.build_table")
)

// recordBuild finalizes one BuildTable's telemetry: the span's duration and
// the number of rows it filled.
func recordBuild(sp obs.Span, filled int) {
	sp.End()
	obsTablesBuilt.Inc()
	obsRowsBuilt.Add(int64(filled))
}

// filledRows is the number of rows a build over n users and the row set
// rows fills.
func filledRows(n int, rows []socialgraph.UserID) int {
	if rows == nil {
		return n
	}
	return len(rows)
}

// Model computes per-user online-time schedules from an activity trace.
// Implementations must be deterministic given the same rng state: BuildTable
// draws all randomness in phase 1, sequentially, in a fixed per-user order.
type Model interface {
	// Name identifies the model in experiment output ("Sporadic", ...).
	Name() string
	// BuildTable returns the arena-backed dense schedule table of the
	// dataset with the rows of the row set filled: rows lists user IDs in
	// ascending order without repeats, and nil means every user. Random
	// values are consumed from rng for every user in a fixed sequential
	// order (phase 1), whatever the row set; workers bounds the parallel
	// bitmap-construction pool (phase 2), which never affects the result.
	// workers <= 1 builds inline.
	BuildTable(d *trace.Dataset, rng *rand.Rand, workers int, rows []socialgraph.UserID) *Table
}

// Compile-time interface checks.
var (
	_ Model = Sporadic{}
	_ Model = FixedLength{}
	_ Model = RandomLength{}
)

// Sporadic models several short sessions per day, one per created activity.
// The paper's default session length is 20 minutes; Fig. 8 sweeps it from
// 100 s to 100 000 s.
type Sporadic struct {
	// SessionLength is the fixed session duration. Zero means the paper's
	// default of 20 minutes. Sub-minute lengths round up to one minute (the
	// schedule resolution).
	SessionLength time.Duration
}

// DefaultSessionLength is the paper's conservative session-length choice.
const DefaultSessionLength = 20 * time.Minute

// Name implements Model.
func (s Sporadic) Name() string { return "Sporadic" }

func (s Sporadic) sessionMinutes() int {
	d := s.SessionLength
	if d <= 0 {
		d = DefaultSessionLength
	}
	m := int((d + time.Minute - 1) / time.Minute)
	if m < 1 {
		m = 1
	}
	if m > interval.DayMinutes {
		m = interval.DayMinutes
	}
	return m
}

// buildShardUsers is the user granularity of the shard-by-shard Sporadic
// build: phase 1 and phase 2 alternate shard by shard, so the per-activity
// draw column is sized for one shard's activity volume instead of the whole
// population's (at 1M users the whole-population column is ~100 MB; per
// shard it is a few MB, reused across shards). Draws stay in global
// per-user order — all of user u's draws happen before user u+1's, across
// shard boundaries too — so the table bytes are identical to the historical
// whole-population build for any shard size and any worker count.
const buildShardUsers = 1 << 16

// BuildTable implements Model. A user with no created activities gets an
// empty schedule (never online), mirroring the paper's observation that
// online times must be inferred from activity.
//
// Phase 1 draws one session offset per created activity — the random point
// inside the session at which the activity happens — into a flat per-activity
// column aligned with the dataset's created-activity CSR index. Phase 2 ORs
// each user's session windows into his arena row. Both phases run shard by
// shard (buildShardUsers) with the draw column reused, bounding peak memory
// by one shard's activities.
func (s Sporadic) BuildTable(d *trace.Dataset, rng *rand.Rand, workers int, rows []socialgraph.UserID) *Table {
	sp := obsBuildTimer.Begin()
	sess := s.sessionMinutes()
	n := d.NumUsers()
	t := NewTable(n)

	var uoff []int32 // per-shard CSR-style prefix sums, reused across shards
	var offs []int16 // per-shard draw column, reused across shards
	for slo := 0; slo < n; slo += buildShardUsers {
		shi := min(slo+buildShardUsers, n)
		m := shi - slo
		// Per-user offsets into this shard's draw column. Subtotals fit
		// int32: a shard's created activities are bounded by the dataset
		// total, which every construction path caps at trace.MaxActivities.
		if cap(uoff) >= m+1 {
			uoff = uoff[:m+1]
		} else {
			uoff = make([]int32, m+1)
		}
		uoff[0] = 0
		for u := slo; u < shi; u++ {
			uoff[u-slo+1] = uoff[u-slo] + int32(len(d.CreatedIdx(socialgraph.UserID(u))))
		}
		total := int(uoff[m])
		// Session offsets fit in int16: sessionMinutes() <= DayMinutes = 1440.
		if cap(offs) >= total {
			offs = offs[:total]
		} else {
			offs = make([]int16, total)
		}
		for i := range offs {
			//dosn:boundschecked sessionMinutes clamps sess to [1, DayMinutes=1440], fits int16
			offs[i] = int16(rng.Intn(sess))
		}

		fillRows(slo, shi, rows, workers, func(u int) {
			acts := d.CreatedIdx(socialgraph.UserID(u))
			base := uoff[u-slo]
			row := &t.rows[u]
			for j, k := range acts {
				// The activity happens at a uniformly random point inside
				// the session, so the session starts up to sess-1 minutes
				// earlier.
				//dosn:boundschecked j indexes acts, whose length is capped at trace.MaxActivities
				start := d.MinuteOfDayAt(int(k)) - int(offs[base+int32(j)])
				row.AddInterval(interval.Interval{Start: start, End: start + sess})
			}
		})
	}
	recordBuild(sp, filledRows(n, rows))
	return t
}

// FixedLength models one continuous daily online window of fixed length,
// centered on the circular mean of the user's activity minutes.
type FixedLength struct {
	// Hours is the window length; the paper evaluates 2, 4, 6 and 8.
	// Values are clamped to [1, 24]: a non-positive length would silently
	// mean "never online" (contradicting the model) and anything above a
	// day is the full day anyway. The clamped behavior is pinned by
	// TestDegenerateHourKnobs.
	Hours int
}

// Name implements Model.
func (f FixedLength) Name() string { return fmt.Sprintf("FixedLength(%dh)", f.Hours) }

// windowMinutes returns the effective window length with Hours clamped to
// [1, 24] — degenerate knobs (zero, negative, more than a day) become
// explicit bounds instead of leaking nonsense windows through the interval
// layer.
func (f FixedLength) windowMinutes() int { return min(max(f.Hours, 1), 24) * 60 }

// BuildTable implements Model. The activity-derived centers are the dataset's
// ActivityCenters column — computed once per dataset, whatever the window
// length, seed or repetition. Users with no activities get a window at a
// uniformly random time of day (their behaviour is unknown): phase 1 draws
// exactly those centers, in user order; phase 2 sets each row's one window.
func (f FixedLength) BuildTable(d *trace.Dataset, rng *rand.Rand, workers int, rows []socialgraph.UserID) *Table {
	sp := obsBuildTimer.Begin()
	length := f.windowMinutes()
	n := d.NumUsers()
	t := NewTable(n)
	centers := slices.Clone(d.ActivityCenters(workers))
	for u := range centers {
		drawCenter(centers, u, rng)
	}
	fillRows(0, n, rows, workers, func(u int) {
		t.rows[u].AddInterval(windowCentered(int(centers[u]), length))
	})
	recordBuild(sp, filledRows(n, rows))
	return t
}

// RandomLength is FixedLength with a per-user window length drawn uniformly
// from [MinHours, MaxHours] (the paper uses [2, 8]).
type RandomLength struct {
	// MinHours and MaxHours bound the per-user window length. Zero values
	// mean the paper's defaults of 2 and 8; the resolved bounds are clamped
	// into [1, 24] with MaxHours raised to MinHours when inverted (pinned
	// by TestDegenerateHourKnobs).
	MinHours int
	MaxHours int
}

// Name implements Model.
func (r RandomLength) Name() string { return "RandomLength" }

func (r RandomLength) bounds() (lo, hi int) {
	lo, hi = r.MinHours, r.MaxHours
	if lo <= 0 {
		lo = 2
	}
	if hi <= 0 {
		hi = 8
	}
	lo = min(max(lo, 1), 24)
	hi = min(max(hi, 1), 24)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// BuildTable implements Model. Phase 1 draws, per user, the window length
// and — for users with no activities — the random center, in that order
// (the historical draw order); every other center is the dataset's
// ActivityCenters entry.
func (r RandomLength) BuildTable(d *trace.Dataset, rng *rand.Rand, workers int, rows []socialgraph.UserID) *Table {
	sp := obsBuildTimer.Begin()
	lo, hi := r.bounds()
	n := d.NumUsers()
	t := NewTable(n)
	lengths := make([]int32, n)
	centers := slices.Clone(d.ActivityCenters(workers))
	for u := range centers {
		//dosn:boundschecked bounds() clamps lo,hi to [1,24], so the draw is < 25*60
		lengths[u] = int32(lo*60 + rng.Intn((hi-lo)*60+1))
		drawCenter(centers, u, rng)
	}
	fillRows(0, n, rows, workers, func(u int) {
		t.rows[u].AddInterval(windowCentered(int(centers[u]), int(lengths[u])))
	})
	recordBuild(sp, filledRows(n, rows))
	return t
}

// drawCenter performs user u's phase-1 center draw on a copy of the
// dataset's ActivityCenters column: a user with no created activities
// (a negative entry) gets a uniformly random minute; an activity-derived
// center draws nothing.
func drawCenter(centers []int16, u int, rng *rand.Rand) {
	if centers[u] < 0 {
		centers[u] = int16(rng.Intn(interval.DayMinutes))
	}
}

// windowCentered is the interval of the window of the given length centered
// on the minute center, in the (possibly wrapping) form Bitmap.AddInterval
// canonicalizes exactly like interval.WindowCentered.
func windowCentered(center, length int) interval.Interval {
	start := center - length/2
	return interval.Interval{Start: start, End: start + length}
}

// ComputeTable builds the model's schedule table of every user with a
// deterministic seed and the given phase-2 worker budget (which never
// affects the result).
func ComputeTable(m Model, d *trace.Dataset, seed int64, workers int) *Table {
	return ComputeRows(m, d, seed, workers, nil)
}

// ComputeRows is ComputeTable with only the rows of the row set filled (see
// Model.BuildTable; nil means every row). A filled row is byte-identical to
// the same row of ComputeTable's table for the same seed.
func ComputeRows(m Model, d *trace.Dataset, seed int64, workers int, rows []socialgraph.UserID) *Table {
	return m.BuildTable(d, rand.New(rand.NewSource(seed)), workers, rows)
}

// SeedIndependent reports whether m's build over the row set (nil: every
// row) fills those rows the same for every seed — whether nothing it draws
// reaches a filled row. A caller whose repetitions differ only by seed may
// then build one table and share it among them. Sporadic draws every
// session offset and RandomLength every window length, so neither ever
// qualifies. FixedLength draws only the centers of users the dataset's
// ActivityCenters column has none for, so it qualifies exactly when every
// row in the set has one. Asking may build the dataset's center column
// (over up to workers workers), which a FixedLength build needs anyway.
func SeedIndependent(m Model, d *trace.Dataset, rows []socialgraph.UserID, workers int) bool {
	if _, ok := m.(FixedLength); !ok {
		return false
	}
	centers := d.ActivityCenters(workers)
	if rows == nil {
		return !slices.ContainsFunc(centers, func(c int16) bool { return c < 0 })
	}
	for _, u := range rows {
		if centers[u] < 0 {
			return false
		}
	}
	return true
}

// DefaultModels returns the model set evaluated throughout the paper's
// result figures: Sporadic (20 min), RandomLength, FixedLength 2 h and 8 h.
func DefaultModels() []Model {
	return []Model{
		Sporadic{},
		RandomLength{},
		FixedLength{Hours: 2},
		FixedLength{Hours: 8},
	}
}
