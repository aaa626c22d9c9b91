package onlinetime

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dosn/internal/interval"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// --- legacy reference implementations ---------------------------------------
//
// These are the pre-arena, per-user Set-emitting schedule builds (the code
// the two-phase BuildTable replaced), kept verbatim as the equivalence
// oracle: same per-user RNG draw order, sorted-interval arithmetic only, no
// bitmaps. The properties below check that the arena table — under any
// phase-2 worker count — produces exactly these sets.

// activityCenter returns the circular mean minute-of-day of the user's
// created activities, by direct trigonometry per activity; ok is false when
// the user has none. It is the production code the dataset's ActivityCenters
// column replaced, and the oracle that column is held to.
func activityCenter(d *trace.Dataset, u socialgraph.UserID) (center int, ok bool) {
	acts := d.CreatedIdx(u)
	if len(acts) == 0 {
		return 0, false
	}
	var sx, sy float64
	for _, k := range acts {
		th := 2 * math.Pi * float64(d.MinuteOfDayAt(int(k))) / interval.DayMinutes
		sx += math.Cos(th)
		sy += math.Sin(th)
	}
	if math.Hypot(sx, sy) < 1e-9*float64(len(acts)) {
		// Perfectly balanced activities (e.g. two opposite minutes): any
		// center is as good as any other; use the first activity.
		return d.MinuteOfDayAt(int(acts[0])), true
	}
	th := math.Atan2(sy, sx)
	m := int(math.Round(th / (2 * math.Pi) * interval.DayMinutes))
	if m < 0 {
		m += interval.DayMinutes
	}
	return m % interval.DayMinutes, true
}

func legacySporadic(s Sporadic, d *trace.Dataset, rng *rand.Rand) []interval.Set {
	sess := s.sessionMinutes()
	out := make([]interval.Set, d.NumUsers())
	for u := 0; u < d.NumUsers(); u++ {
		acts := d.CreatedIdx(socialgraph.UserID(u))
		if len(acts) == 0 {
			continue
		}
		windows := make([]interval.Interval, 0, len(acts))
		for _, k := range acts {
			start := d.MinuteOfDayAt(int(k)) - rng.Intn(sess)
			windows = append(windows, interval.Interval{Start: start, End: start + sess})
		}
		out[u] = interval.NewSet(windows...)
	}
	return out
}

func legacyFixedLength(f FixedLength, d *trace.Dataset, rng *rand.Rand) []interval.Set {
	length := f.windowMinutes()
	out := make([]interval.Set, d.NumUsers())
	for u := 0; u < d.NumUsers(); u++ {
		center, ok := activityCenter(d, socialgraph.UserID(u))
		if !ok {
			center = rng.Intn(interval.DayMinutes)
		}
		out[u] = interval.WindowCentered(center, length)
	}
	return out
}

func legacyRandomLength(r RandomLength, d *trace.Dataset, rng *rand.Rand) []interval.Set {
	lo, hi := r.bounds()
	out := make([]interval.Set, d.NumUsers())
	for u := 0; u < d.NumUsers(); u++ {
		length := lo*60 + rng.Intn((hi-lo)*60+1)
		center, ok := activityCenter(d, socialgraph.UserID(u))
		if !ok {
			center = rng.Intn(interval.DayMinutes)
		}
		out[u] = interval.WindowCentered(center, length)
	}
	return out
}

func legacyScheduleAll(m Model, d *trace.Dataset, rng *rand.Rand) []interval.Set {
	switch m := m.(type) {
	case Sporadic:
		return legacySporadic(m, d, rng)
	case FixedLength:
		return legacyFixedLength(m, d, rng)
	case RandomLength:
		return legacyRandomLength(m, d, rng)
	default:
		panic("unknown model")
	}
}

// --- random dataset generator ------------------------------------------------

// randomTrace is a quick.Generator yielding small arbitrary datasets:
// variable user counts, users with zero activities (the empty-schedule
// path), random minutes-of-day including midnight-adjacent ones, and
// timestamp ties.
type randomTrace struct {
	d *trace.Dataset
}

func (randomTrace) Generate(r *rand.Rand, size int) reflect.Value {
	users := 1 + r.Intn(20)
	b := socialgraph.NewBuilder(socialgraph.Undirected, users)
	for e := 0; e < users*2; e++ {
		b.AddEdge(socialgraph.UserID(r.Intn(users)), socialgraph.UserID(r.Intn(users)))
	}
	d := &trace.Dataset{Name: "quick", Graph: b.Build()}
	for u := 0; u < users; u++ {
		if r.Intn(4) == 0 {
			continue // empty-activity user
		}
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			at := trace.Epoch.Add(time.Duration(r.Intn(7*24*60))*time.Minute +
				time.Duration(r.Intn(60))*time.Second)
			d.AppendActivity(trace.Activity{
				Creator:  socialgraph.UserID(u),
				Receiver: socialgraph.UserID(r.Intn(users)),
				At:       at,
			})
		}
	}
	d.Reindex()
	return reflect.ValueOf(randomTrace{d: d})
}

// --- properties --------------------------------------------------------------

// quickModels is the model matrix the equivalence properties run: the three
// paper models plus a sub-minute Sporadic session (rounds up to the 1-minute
// schedule resolution) and a long fixed window that wraps midnight for many
// centers.
func quickModels() []Model {
	return []Model{
		Sporadic{},
		Sporadic{SessionLength: 45 * time.Second},
		FixedLength{Hours: 2},
		FixedLength{Hours: 23},
		RandomLength{},
		RandomLength{MinHours: 1, MaxHours: 3},
	}
}

// TestQuickTableMatchesLegacySets: for every model, the arena-table build —
// each row and its run-list view — agrees exactly with the legacy per-user
// interval.Set path on the same RNG seed.
func TestQuickTableMatchesLegacySets(t *testing.T) {
	for _, m := range quickModels() {
		m := m
		prop := func(rt randomTrace, seed int64) bool {
			want := legacyScheduleAll(m, rt.d, rand.New(rand.NewSource(seed)))
			table := m.BuildTable(rt.d, rand.New(rand.NewSource(seed)), 4, nil)
			if table.NumUsers() != len(want) {
				return false
			}
			wantRows := interval.BitmapsFromSets(want)
			for u := range want {
				row := table.Bitmap(socialgraph.UserID(u))
				if got := row.Set(); !got.Equal(want[u]) {
					t.Logf("user %d: table %s, legacy %s", u, got, want[u])
					return false
				}
				if !row.Equal(&wantRows[u]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s (%#v): %v", m.Name(), m, err)
		}
	}
}

// TestQuickTableBuildWorkerCountInvariant pins that table construction is
// bit-identical across phase-2 worker counts: the RNG phase is sequential
// and every worker writes disjoint arena rows.
func TestQuickTableBuildWorkerCountInvariant(t *testing.T) {
	for _, m := range quickModels() {
		m := m
		prop := func(rt randomTrace, seed int64) bool {
			ref := m.BuildTable(rt.d, rand.New(rand.NewSource(seed)), 1, nil)
			for _, workers := range []int{0, 2, 3, 8} {
				got := m.BuildTable(rt.d, rand.New(rand.NewSource(seed)), workers, nil)
				if !reflect.DeepEqual(ref.Bitmaps(), got.Bitmaps()) {
					t.Logf("%s: workers=%d differs from sequential build", m.Name(), workers)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// TestQuickTableBuildWorkerCountInvariantLarge crosses the single-chunk
// threshold (buildChunk users) so the pool actually fans out.
func TestTableBuildWorkerCountInvariantLarge(t *testing.T) {
	d := trace.MustSynthesize(trace.DefaultFacebookConfig(3 * buildChunk / 2))
	for _, m := range DefaultModels() {
		ref := m.BuildTable(d, rand.New(rand.NewSource(7)), 1, nil)
		for _, workers := range []int{2, 5} {
			got := m.BuildTable(d, rand.New(rand.NewSource(7)), workers, nil)
			if !reflect.DeepEqual(ref.Bitmaps(), got.Bitmaps()) {
				t.Errorf("%s: workers=%d differs from sequential build", m.Name(), workers)
			}
		}
	}
}

// --- degenerate hour knobs ----------------------------------------------------

// TestDegenerateHourKnobs pins the explicit clamping of the window-length
// knobs: FixedLength.Hours and RandomLength.{Min,Max}Hours resolve into
// [1, 24] (inverted random bounds collapse to the lower bound), so no knob
// silently produces an empty or nonsense window.
func TestDegenerateHourKnobs(t *testing.T) {
	fixedCases := []struct {
		hours, wantMinutes int
	}{
		{hours: 0, wantMinutes: 60},    // zero would mean "never online"
		{hours: -5, wantMinutes: 60},   // negative likewise
		{hours: 1, wantMinutes: 60},    // lower bound is honored as-is
		{hours: 24, wantMinutes: 1440}, // exactly a day
		{hours: 30, wantMinutes: 1440}, // more than a day is the full day
	}
	for _, tt := range fixedCases {
		if got := (FixedLength{Hours: tt.hours}).windowMinutes(); got != tt.wantMinutes {
			t.Errorf("FixedLength{%d}.windowMinutes = %d, want %d", tt.hours, got, tt.wantMinutes)
		}
	}
	// The clamp is visible end to end: every schedule of a degenerate model
	// is a window of the clamped length.
	d := datasetWithMinutes(t, 700)
	if got := ComputeTable(FixedLength{Hours: 0}, d, 3, 1).Bitmap(0).Minutes(); got != 60 {
		t.Errorf("FixedLength{0} schedule length = %d, want 60", got)
	}
	if got := ComputeTable(FixedLength{Hours: 48}, d, 3, 1).Bitmap(0).Minutes(); got != interval.DayMinutes {
		t.Errorf("FixedLength{48} schedule length = %d, want full day", got)
	}

	randomCases := []struct {
		min, max, wantLo, wantHi int
	}{
		{min: 0, max: 0, wantLo: 2, wantHi: 8},    // paper defaults
		{min: -2, max: -1, wantLo: 2, wantHi: 8},  // negatives mean defaults
		{min: 30, max: 2, wantLo: 24, wantHi: 24}, // clamp, then collapse inversion
		{min: 2, max: 40, wantLo: 2, wantHi: 24},  // upper clamp
		{min: 5, max: 1, wantLo: 5, wantHi: 5},    // inversion collapses upward
	}
	for _, tt := range randomCases {
		lo, hi := (RandomLength{MinHours: tt.min, MaxHours: tt.max}).bounds()
		if lo != tt.wantLo || hi != tt.wantHi {
			t.Errorf("RandomLength{%d,%d}.bounds = [%d,%d], want [%d,%d]",
				tt.min, tt.max, lo, hi, tt.wantLo, tt.wantHi)
		}
	}
	if got := ComputeTable(RandomLength{MinHours: 30}, d, 5, 1).Bitmap(0).Minutes(); got != interval.DayMinutes {
		t.Errorf("RandomLength{MinHours:30} schedule length = %d, want full day", got)
	}
}

// --- table helpers ------------------------------------------------------------

func TestTableFromSetsRoundTrip(t *testing.T) {
	sets := []interval.Set{
		interval.Empty,
		interval.FullDay(),
		interval.Window(1400, 100), // wraps midnight
		interval.NewSet(interval.Interval{Start: 10, End: 20}, interval.Interval{Start: 40, End: 60}),
	}
	table := NewTable(len(sets))
	copy(table.Bitmaps(), interval.BitmapsFromSets(sets))
	if table.NumUsers() != len(sets) {
		t.Fatalf("NumUsers = %d, want %d", table.NumUsers(), len(sets))
	}
	for u, want := range sets {
		if s := table.Bitmap(socialgraph.UserID(u)).Set(); !s.Equal(want) {
			t.Errorf("row %d round-trips to %s, want %s", u, s, want)
		}
	}
	if got, want := table.MemoryBytes(), len(sets)*interval.BitmapWords*8; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestTableBitmapOutOfRange(t *testing.T) {
	table := NewTable(2)
	if table.Bitmap(-1) != nil || table.Bitmap(2) != nil {
		t.Error("out-of-range rows must be nil")
	}
	if table.Bitmap(1) == nil {
		t.Error("in-range row must be a view")
	}
	// The view aliases the arena.
	table.Bitmap(1).AddInterval(interval.Interval{Start: 5, End: 7})
	if got := table.Bitmaps()[1].Minutes(); got != 2 {
		t.Errorf("arena row minutes = %d, want 2 (view must alias)", got)
	}
}

// TestFillRowsRaisesWorkerPanicOnCaller: a fill that panics on a table-build
// worker must reach the goroutine that called BuildTable — where the
// harness's cell boundary stands — as a panic the caller can recover, with
// the worker's stack. Raised on the worker's own goroutine instead, it would
// end the process (here: the test binary) past every boundary. Four workers
// each hold one chunk before any fails, and every chunk but the first
// panics, so at least two of the panics are on helper goroutines.
func TestFillRowsRaisesWorkerPanicOnCaller(t *testing.T) {
	var held sync.WaitGroup
	held.Add(4)
	r := func() (r any) {
		defer func() { r = recover() }()
		fillRows(100, 100+4*buildChunk, nil, 4, func(u int) {
			if (u-100)%buildChunk == 0 {
				held.Done()
				held.Wait()
			}
			if u >= 100+buildChunk {
				panic("fill bug")
			}
		})
		return nil
	}()
	err, ok := r.(error)
	if !ok {
		t.Fatalf("recovered %T %v, want the build's error", r, r)
	}
	if !strings.Contains(err.Error(), "fill bug") || !strings.Contains(err.Error(), "TestFillRowsRaisesWorkerPanicOnCaller") {
		t.Errorf("panic lost its value or the worker's stack:\n%v", err)
	}
}
