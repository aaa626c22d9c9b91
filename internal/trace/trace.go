// Package trace provides activity traces and datasets for the study: the
// (creator, receiver, timestamp) activity records the paper extracts from the
// Facebook New Orleans wall-post trace and the Twitter tweet trace, a Dataset
// container joining a social graph with its activities, the ≥10-activity
// filtering step the paper applies, per-user interaction indexes used by the
// MostActive policy, and CSV serialization.
//
// # Dataset layout
//
// A Dataset stores its activities column-wise (struct of arrays): three
// parallel columns — creator, receiver (4-byte user IDs) and atUnix (8-byte
// Unix seconds) — instead of a slice of row structs with 24-byte time.Time
// stamps. Per-user lookup runs on CSR (compressed sparse row) indexes: one
// offsets array of length NumUsers+1 plus one column of activity indexes per
// direction, built in a single counting-sort pass by Reindex. The columnar
// layout costs 16 bytes per activity plus 8 bytes per (activity, direction)
// of index — roughly a third of the row-oriented representation it replaced —
// and every accessor (CreatedIdx, ReceivedIdx, ReceivedIdxBetween,
// CandidateInteractionCounts) returns views or fills caller-owned scratch, so
// sweeping a dataset allocates nothing per user.
//
// Activity remains as the row type of the construction and serialization
// boundary only — per-user reads go through the index accessors: ActivityAt
// materializes one row on demand, Rows the whole trace, and SetActivities
// loads rows back into columns, so serialization and hand construction are
// lossless at second resolution (the resolution of the CSV format; sub-second components are
// truncated when rows are loaded).
//
// The original traces are not redistributable, so package trace also contains
// synthetic generators (synth.go) calibrated to the statistics the paper
// reports; DESIGN.md §4 documents the substitution.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dosn/internal/fault"
	"dosn/internal/socialgraph"
)

// Epoch is the reference start instant for synthetic traces. It matches the
// first day of the paper's Twitter trace (10-Sep-2009).
var Epoch = time.Date(2009, time.September, 10, 0, 0, 0, 0, time.UTC)

// Activity is one interaction record: a wall post (Facebook) or a tweet
// mentioning another user (Twitter). Creator performed the action; Receiver
// owns the profile the activity lands on. Inside a Dataset activities live as
// columns; Activity is the row view used at construction and serialization
// boundaries.
type Activity struct {
	Creator  socialgraph.UserID `json:"creator"`
	Receiver socialgraph.UserID `json:"receiver"`
	At       time.Time          `json:"at"`
}

// MinuteOfDay returns the activity's minute within the 24-hour day in UTC,
// in [0, 1440).
func (a Activity) MinuteOfDay() int { return MinuteOfDay(a.At) }

// MinuteOfDay returns t's minute within the UTC day, in [0, 1440).
func MinuteOfDay(t time.Time) int {
	utc := t.UTC()
	return utc.Hour()*60 + utc.Minute()
}

// minuteOfDayUnix returns the minute within the UTC day of a Unix-seconds
// timestamp, in [0, 1440), agreeing with MinuteOfDay(time.Unix(sec, 0)) for
// every sec, including instants before 1970.
func minuteOfDayUnix(sec int64) int {
	s := sec % daySeconds
	if s < 0 {
		s += daySeconds
	}
	return int(s / 60)
}

// Dataset joins a social graph with its activity trace. Build one with the
// synthesizers, Read, or construct by hand (SetActivities/AppendActivity)
// followed by Reindex.
type Dataset struct {
	// Name labels the dataset (e.g. "facebook", "twitter").
	Name string
	// Graph is the social graph; Neighbors(u) is u's replica-candidate set.
	Graph *socialgraph.Graph

	// Activity columns (struct of arrays), index-aligned, in timestamp order
	// after Reindex.
	creator  []socialgraph.UserID
	receiver []socialgraph.UserID
	atUnix   []int64 // Unix seconds

	// CSR per-user indexes into the columns: user u's activities are
	// idx[off[u]:off[u+1]], in timestamp order.
	createdOff  []int32
	createdIdx  []int32
	receivedOff []int32
	receivedIdx []int32

	// minOfDay caches minuteOfDayUnix(atUnix[i]) as a 2-byte column, rebuilt
	// by Reindex alongside the CSR indexes. Schedule builds and sweeps probe
	// minutes through CSR indices — random accesses that touch 2 bytes here
	// instead of 8 in atUnix, a 4x cut of the cache-miss footprint on the
	// hottest dataset read path.
	minOfDay []uint16

	// centers is the ActivityCenters column: nil until the first request
	// builds it under centersMu, nil again after a mutation.
	centersMu sync.Mutex
	centers   []int16
}

// NumActivities returns the number of activities in the trace.
func (d *Dataset) NumActivities() int { return len(d.atUnix) }

// ActivityAt materializes the i-th activity (timestamp order after Reindex)
// as a row view. It allocates nothing; the returned value is independent of
// the dataset.
func (d *Dataset) ActivityAt(i int) Activity {
	return Activity{
		Creator:  d.creator[i],
		Receiver: d.receiver[i],
		At:       time.Unix(d.atUnix[i], 0).UTC(),
	}
}

// CreatorAt returns the creator column entry of activity i.
func (d *Dataset) CreatorAt(i int) socialgraph.UserID { return d.creator[i] }

// ReceiverAt returns the receiver column entry of activity i.
func (d *Dataset) ReceiverAt(i int) socialgraph.UserID { return d.receiver[i] }

// UnixAt returns the timestamp column entry of activity i in Unix seconds.
func (d *Dataset) UnixAt(i int) int64 { return d.atUnix[i] }

// MinuteOfDayAt returns the minute-of-day of activity i without materializing
// a time.Time. After Reindex it reads the cached 2-byte column; on a
// hand-built dataset that has not been reindexed it falls back to computing
// from the timestamp.
//
//dosn:hotpath
func (d *Dataset) MinuteOfDayAt(i int) int {
	if i < len(d.minOfDay) {
		return int(d.minOfDay[i])
	}
	return minuteOfDayUnix(d.atUnix[i])
}

// Rows materializes the whole trace as activity rows in column order. It is
// the row<->column conversion boundary for serialization and tests; sweeps
// should use the index accessors instead.
func (d *Dataset) Rows() []Activity {
	out := make([]Activity, d.NumActivities())
	for i := range out {
		out[i] = d.ActivityAt(i)
	}
	return out
}

// SetActivities replaces the trace with the given rows (truncating timestamps
// to whole seconds, the serialization resolution). Call Reindex afterwards.
func (d *Dataset) SetActivities(rows []Activity) {
	d.creator = make([]socialgraph.UserID, len(rows))
	d.receiver = make([]socialgraph.UserID, len(rows))
	d.atUnix = make([]int64, len(rows))
	for i, a := range rows {
		d.creator[i] = a.Creator
		d.receiver[i] = a.Receiver
		d.atUnix[i] = a.At.Unix()
	}
	d.invalidate()
}

// AppendActivity appends one row (timestamp truncated to whole seconds).
// Call Reindex when done mutating.
func (d *Dataset) AppendActivity(a Activity) {
	d.appendColumns(a.Creator, a.Receiver, a.At.Unix())
}

// appendColumns appends one activity given directly as column values.
func (d *Dataset) appendColumns(creator, receiver socialgraph.UserID, atUnix int64) {
	d.creator = append(d.creator, creator)
	d.receiver = append(d.receiver, receiver)
	d.atUnix = append(d.atUnix, atUnix)
	d.invalidate()
}

// setColumns replaces the trace with fully built columns (index-aligned,
// owned by the dataset afterwards). It is the bulk-construction entry the
// synthesizer's sparse path and the activity filter use to avoid per-row
// append growth.
func (d *Dataset) setColumns(creator, receiver []socialgraph.UserID, atUnix []int64) {
	d.creator, d.receiver, d.atUnix = creator, receiver, atUnix
	d.invalidate()
}

// invalidate drops the CSR indexes and derived columns after a column
// mutation.
func (d *Dataset) invalidate() {
	d.createdOff, d.createdIdx = nil, nil
	d.receivedOff, d.receivedIdx = nil, nil
	d.minOfDay = nil
	d.centers = nil
}

// Reindex sorts the activities by timestamp (stable, preserving insertion
// order within equal seconds) and (re)builds the per-user CSR indexes in one
// counting-sort pass per direction. It must be called after constructing or
// mutating a Dataset by hand; the synthesizers and Read do it automatically.
// Columns already in timestamp order — the activity filter emits them that
// way — skip the sort entirely after one O(n) check.
//
// Reindex panics with ErrTooManyActivities past MaxActivities rows: the CSR
// indexes are int32 and would otherwise wrap silently. The error-returning
// construction paths (Synthesize, Read) refuse such traces before any column
// is allocated, so the panic is reachable only from hand-built datasets that
// ignored those entry points.
func (d *Dataset) Reindex() {
	if err := checkActivityCount(d.Name, int64(len(d.atUnix))); err != nil {
		panic(err)
	}
	d.sortByTimestamp()
	d.buildIndexes(true)
}

// buildIndexes (re)builds the two CSR directions over columns already in
// timestamp order and, when asked, the minOfDay column (the counting
// synthesis path writes that one itself, straight from its sort keys). The
// builds read the columns and write disjoint outputs, so they run side by
// side. The activity-center column reads the created index, so a column
// built before it existed is dropped.
func (d *Dataset) buildIndexes(minOfDay bool) {
	n := d.Graph.NumUsers()
	d.centers = nil
	passes := []func(){
		func() { d.createdOff, d.createdIdx = buildCSR(d.creator, n, d.createdOff, d.createdIdx) },
		func() { d.receivedOff, d.receivedIdx = buildCSR(d.receiver, n, d.receivedOff, d.receivedIdx) },
	}
	if minOfDay {
		passes = append(passes, d.fillMinOfDay)
	}
	fault.Parallel(passes...)
}

// fillMinOfDay derives the minOfDay column from atUnix, reusing its backing
// array when large enough.
func (d *Dataset) fillMinOfDay() {
	if cap(d.minOfDay) >= len(d.atUnix) {
		d.minOfDay = d.minOfDay[:len(d.atUnix)]
	} else {
		d.minOfDay = make([]uint16, len(d.atUnix))
	}
	for i, sec := range d.atUnix {
		//dosn:boundschecked minuteOfDayUnix returns a minute in [0, 1440)
		d.minOfDay[i] = uint16(minuteOfDayUnix(sec))
	}
}

// sortByTimestamp stably sorts the three columns by atUnix. Already-sorted
// columns (the synthesizer and Read fast path) are detected in one scan and
// left untouched.
func (d *Dataset) sortByTimestamp() {
	if slices.IsSorted(d.atUnix) {
		return
	}
	// Reindex checks before calling, but the permutation is int32 and would
	// wrap silently past MaxActivities — hold the invariant locally too.
	if err := checkActivityCount(d.Name, int64(len(d.atUnix))); err != nil {
		panic(err)
	}
	perm := make([]int32, len(d.atUnix))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		return d.atUnix[perm[i]] < d.atUnix[perm[j]]
	})
	creator := make([]socialgraph.UserID, len(perm))
	receiver := make([]socialgraph.UserID, len(perm))
	atUnix := make([]int64, len(perm))
	for i, p := range perm {
		creator[i] = d.creator[p]
		receiver[i] = d.receiver[p]
		atUnix[i] = d.atUnix[p]
	}
	d.creator, d.receiver, d.atUnix = creator, receiver, atUnix
}

// buildCSR builds the offsets+indexes arrays mapping each user in [0, n) to
// the positions of its activities in the given column, one counting pass and
// one fill pass, reusing the supplied backing arrays when large enough.
// Out-of-range user IDs are skipped, matching the row-era index build.
func buildCSR(col []socialgraph.UserID, n int, off, idx []int32) ([]int32, []int32) {
	// The index entries are int32 positions into col; past MaxActivities they
	// would wrap silently. Reindex guards the same bound, but buildCSR owns
	// the conversion, so it owns the check.
	if len(col) > MaxActivities {
		panic(ErrTooManyActivities)
	}
	if cap(off) >= n+1 {
		off = off[:n+1]
		clear(off)
	} else {
		off = make([]int32, n+1)
	}
	total := 0
	for _, u := range col {
		if u >= 0 && int(u) < n {
			off[u+1]++
			total++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	if cap(idx) >= total {
		idx = idx[:total]
	} else {
		idx = make([]int32, total)
	}
	// Fill using off[u] as a moving cursor, then shift the offsets back.
	for i, u := range col {
		if u >= 0 && int(u) < n {
			idx[off[u]] = int32(i)
			off[u]++
		}
	}
	for u := n; u > 0; u-- {
		off[u] = off[u-1]
	}
	off[0] = 0
	return off, idx
}

// NumUsers returns the number of users in the dataset's graph.
func (d *Dataset) NumUsers() int { return d.Graph.NumUsers() }

// CreatedIdx returns the indexes (into the activity columns) of the
// activities user u created, in timestamp order. The returned slice is a view
// into the CSR index — no allocation — and must not be modified.
//
//dosn:hotpath
func (d *Dataset) CreatedIdx(u socialgraph.UserID) []int32 {
	return csrRow(d.createdOff, d.createdIdx, u)
}

// ReceivedIdx returns the indexes of the activities on user u's profile, in
// timestamp order. The returned slice is a view into the CSR index — no
// allocation — and must not be modified.
//
//dosn:hotpath
func (d *Dataset) ReceivedIdx(u socialgraph.UserID) []int32 {
	return csrRow(d.receivedOff, d.receivedIdx, u)
}

//dosn:hotpath
func csrRow(off, idx []int32, u socialgraph.UserID) []int32 {
	if off == nil || u < 0 || int(u) >= len(off)-1 {
		return nil
	}
	return idx[off[u]:off[u+1]]
}

// CreatedCount returns how many activities u created (no allocation).
func (d *Dataset) CreatedCount(u socialgraph.UserID) int {
	return len(d.CreatedIdx(u))
}

// ReceivedCount returns how many activities landed on u's profile.
func (d *Dataset) ReceivedCount(u socialgraph.UserID) int {
	return len(d.ReceivedIdx(u))
}

// CountScratch holds the reusable buffers of CandidateInteractionCounts so a
// sweep can count interactions for every user without allocating. The zero
// value is ready; buffers grow to the largest user seen.
type CountScratch struct {
	counts   []int
	creators []socialgraph.UserID
}

// CandidateInteractionCounts counts, for each candidate, the activities that
// candidate created on u's profile — the MostActive ranking signal (paper
// §III-B) — writing into s's buffers and returning a slice aligned with
// candidates (valid until the next call with the same scratch). candidates
// must be sorted ascending and duplicate-free, which socialgraph.Neighbors
// guarantees. The creators of u's received activities are copy-sorted once
// and merged against the candidate list, so the cost is O(k log k + k + c)
// with zero steady-state allocations.
func (d *Dataset) CandidateInteractionCounts(u socialgraph.UserID, candidates []socialgraph.UserID, s *CountScratch) []int {
	if cap(s.counts) >= len(candidates) {
		s.counts = s.counts[:len(candidates)]
		clear(s.counts)
	} else {
		s.counts = make([]int, len(candidates))
	}
	ks := d.ReceivedIdx(u)
	if len(ks) == 0 || len(candidates) == 0 {
		return s.counts
	}
	s.creators = s.creators[:0]
	for _, k := range ks {
		s.creators = append(s.creators, d.creator[k])
	}
	slices.Sort(s.creators)
	// Merge the sorted creator multiset against the sorted candidate list.
	ci := 0
	for i := 0; i < len(s.creators); {
		c := s.creators[i]
		j := i + 1
		for j < len(s.creators) && s.creators[j] == c {
			j++
		}
		for ci < len(candidates) && candidates[ci] < c {
			ci++
		}
		if ci < len(candidates) && candidates[ci] == c {
			s.counts[ci] = j - i
		}
		i = j
	}
	return s.counts
}

// secondsCeil returns the smallest whole-second Unix timestamp not before t,
// so that for any whole-second activity instant a: a >= t ⟺ aUnix >=
// secondsCeil(t). This keeps the half-open interval accessors exact even for
// sub-second boundary instants (e.g. the HistorySplit ablation's fractional
// train/eval split).
func secondsCeil(t time.Time) int64 {
	s := t.Unix()
	if t.Nanosecond() > 0 {
		s++
	}
	return s
}

// ReceivedIdxBetween returns the subrange of u's received-activity index
// list whose timestamps fall in the half-open interval [from, to), in
// timestamp order: a view into the CSR index, like ReceivedIdx. from == to
// (or from after to) yields nothing, an activity exactly at `to` is
// excluded, and an out-of-range u yields nil (pinned by
// TestReceivedByBetweenSemantics). The list is in timestamp order, so both
// bounds are binary searches.
func (d *Dataset) ReceivedIdxBetween(u socialgraph.UserID, from, to time.Time) []int32 {
	ks := d.ReceivedIdx(u)
	if len(ks) == 0 {
		return nil
	}
	fromSec, toSec := secondsCeil(from), secondsCeil(to)
	lo := sort.Search(len(ks), func(i int) bool { return d.atUnix[ks[i]] >= fromSec })
	hi := sort.Search(len(ks), func(i int) bool { return d.atUnix[ks[i]] >= toSec })
	if hi <= lo {
		return nil // empty range (including from >= to), as the row-era loop yielded
	}
	return ks[lo:hi]
}

// InteractionCountsBetween is CandidateInteractionCounts over u's neighbors
// restricted to activities with timestamps in [from, to) — the "pre-defined
// time frame in the past" the MostActive policy ranks on (§III-B). Like
// ReceivedIdxBetween it is half-open. The result is a fresh slice aligned
// with Graph.Neighbors(u).
func (d *Dataset) InteractionCountsBetween(u socialgraph.UserID, from, to time.Time) []int {
	neighbors := d.Graph.Neighbors(u)
	counts := make([]int, len(neighbors))
	for _, k := range d.ReceivedIdxBetween(u, from, to) {
		if i, ok := slices.BinarySearch(neighbors, d.creator[k]); ok {
			counts[i]++
		}
	}
	return counts
}

// TimeBounds returns the first and one-past-last activity instants. ok is
// false for an empty trace.
func (d *Dataset) TimeBounds() (from, to time.Time, ok bool) {
	if d.NumActivities() == 0 {
		return time.Time{}, time.Time{}, false
	}
	first := time.Unix(d.atUnix[0], 0).UTC()
	last := time.Unix(d.atUnix[len(d.atUnix)-1], 0).UTC()
	return first, last.Add(time.Second), true
}

// FilterMinActivity returns a new dataset keeping only users that created at
// least min activities (the paper keeps users with ≥10 wall posts/tweets),
// with the graph reduced to the induced subgraph on kept users, user IDs
// remapped densely, and activities between dropped users removed. Created
// counts come from one pass over the creator column rather than the CSR
// index, so the filter also accepts a hand-built dataset whose indexes were
// never built.
//
// This is the filter for datasets that arrive whole — read from files or
// built by hand. Calibrated synthesis knows the threshold before it draws a
// row and never materializes what this would drop (see synthesize); the two
// agree byte for byte, which is what TestQuickFusedSynthesisMatchesFilter
// uses this method for.
func (d *Dataset) FilterMinActivity(min int) *Dataset {
	counts := make([]int32, d.NumUsers())
	for _, u := range d.creator {
		if u >= 0 && int(u) < len(counts) {
			counts[u]++
		}
	}
	var kept []socialgraph.UserID
	for u, c := range counts {
		if int(c) >= min {
			kept = append(kept, socialgraph.UserID(u))
		}
	}
	sub, orig := d.Graph.InducedSubgraph(kept)
	// Dense remap column instead of a map: remap[oldID] is the new ID, -1
	// for dropped users. Out-of-range IDs (possible in hand-built traces)
	// drop exactly as the map path dropped them.
	remap := make([]socialgraph.UserID, d.NumUsers())
	for i := range remap {
		remap[i] = -1
	}
	for newID, oldID := range orig {
		remap[oldID] = socialgraph.UserID(newID)
	}
	mapped := func(u socialgraph.UserID) socialgraph.UserID {
		if u < 0 || int(u) >= len(remap) {
			return -1
		}
		return remap[u]
	}
	// Count the survivors first so the filtered columns are allocated once
	// at exact size instead of growing row by row.
	n := 0
	for i := range d.creator {
		if mapped(d.creator[i]) >= 0 && mapped(d.receiver[i]) >= 0 {
			n++
		}
	}
	creator := make([]socialgraph.UserID, 0, n)
	receiver := make([]socialgraph.UserID, 0, n)
	atUnix := make([]int64, 0, n)
	for i := range d.creator {
		nc, nr := mapped(d.creator[i]), mapped(d.receiver[i])
		if nc >= 0 && nr >= 0 {
			creator = append(creator, nc)
			receiver = append(receiver, nr)
			atUnix = append(atUnix, d.atUnix[i])
		}
	}
	out := &Dataset{Name: d.Name, Graph: sub}
	out.setColumns(creator, receiver, atUnix)
	out.Reindex() // input order is already timestamp order: no re-sort
	return out
}

// MemoryBytes estimates the resident size of the dataset: activity columns,
// CSR indexes, the minute-of-day column, the activity-center column once a
// schedule build has asked for it (ActivityCenters; 2 bytes per user), and
// the graph's adjacency lists. It counts backing-array capacity, the figure
// that matters for how far a sweep can scale.
func (d *Dataset) MemoryBytes() int {
	const idBytes, tsBytes = 4, 8
	b := (cap(d.creator) + cap(d.receiver)) * idBytes
	b += cap(d.atUnix) * tsBytes
	b += (cap(d.createdOff) + cap(d.createdIdx) + cap(d.receivedOff) + cap(d.receivedIdx)) * 4
	b += cap(d.minOfDay) * 2
	d.centersMu.Lock()
	b += cap(d.centers) * 2
	d.centersMu.Unlock()
	if d.Graph != nil {
		b += d.Graph.MemoryBytes()
	}
	return b
}

// Stats summarizes a dataset the way the paper reports its traces.
type Stats struct {
	Users             int
	Edges             int
	AverageDegree     float64
	Activities        int
	ActivitiesPerUser float64
	Span              time.Duration
	// Bytes is the estimated resident size (MemoryBytes).
	Bytes int
}

// Stats computes summary statistics for the dataset.
func (d *Dataset) Stats() Stats {
	s := Stats{
		Users:         d.NumUsers(),
		Edges:         d.Graph.NumEdges(),
		AverageDegree: d.Graph.AverageDegree(),
		Activities:    d.NumActivities(),
		Bytes:         d.MemoryBytes(),
	}
	if s.Users > 0 {
		s.ActivitiesPerUser = float64(s.Activities) / float64(s.Users)
	}
	if n := len(d.atUnix); n > 1 {
		s.Span = time.Duration(d.atUnix[n-1]-d.atUnix[0]) * time.Second
	}
	return s
}

// String renders the stats as a single line.
func (s Stats) String() string {
	return fmt.Sprintf("users=%d edges=%d avgDegree=%.1f activities=%d perUser=%.1f span=%s mem=%.1fMB",
		s.Users, s.Edges, s.AverageDegree, s.Activities, s.ActivitiesPerUser, s.Span,
		float64(s.Bytes)/(1<<20))
}

// ErrBadTraceFormat is returned by ReadActivities for malformed input.
var ErrBadTraceFormat = errors.New("trace: malformed activity file")

// ErrTooManyActivities is returned (wrapped) when a trace would exceed
// MaxActivities rows. The CSR indexes and the sort permutation store activity
// positions as int32; a larger trace would silently wrap those indexes into
// corrupt cross-user references, so every construction path — Synthesize,
// ReadActivities, Reindex — refuses first.
var ErrTooManyActivities = errors.New("trace: activity count exceeds int32 index range")

// MaxActivities is the largest activity count a Dataset can index: the CSR
// arrays and sort permutations hold int32 positions.
const MaxActivities = math.MaxInt32

// checkActivityCount returns ErrTooManyActivities (wrapped, with context) if
// n rows would overflow the int32 activity indexes. n is 64-bit so that a
// count past the limit is representable where int has 32 bits.
func checkActivityCount(name string, n int64) error {
	if n > MaxActivities {
		return fmt.Errorf("trace: dataset %q: %d activities: %w", name, n, ErrTooManyActivities)
	}
	return nil
}

// writeActivityHeader and writeActivityRecord define the on-disk activity
// CSV format in one place; WriteActivities (rows) and writeActivityColumns
// (columns) are two loops over the same record layout, and ReadActivities is
// the matching parser.
func writeActivityHeader(bw *bufio.Writer, n int) error {
	if _, err := fmt.Fprintf(bw, "# dosn-activities %d\n", n); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	return nil
}

func writeActivityRecord(bw *bufio.Writer, creator, receiver socialgraph.UserID, atUnix int64) error {
	if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", creator, receiver, atUnix); err != nil {
		return fmt.Errorf("write activity: %w", err)
	}
	return nil
}

// WriteActivities writes the trace as "creator,receiver,unixSeconds" CSV.
func WriteActivities(w io.Writer, activities []Activity) error {
	bw := bufio.NewWriter(w)
	if err := writeActivityHeader(bw, len(activities)); err != nil {
		return err
	}
	for _, a := range activities {
		if err := writeActivityRecord(bw, a.Creator, a.Receiver, a.At.Unix()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeActivityColumns streams the columns in the WriteActivities format
// without materializing rows.
func (d *Dataset) writeActivityColumns(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeActivityHeader(bw, d.NumActivities()); err != nil {
		return err
	}
	for i := range d.atUnix {
		if err := writeActivityRecord(bw, d.creator[i], d.receiver[i], d.atUnix[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadActivities parses a trace written by WriteActivities.
func ReadActivities(r io.Reader) ([]Activity, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: missing header", ErrBadTraceFormat)
	}
	var n int
	if _, err := fmt.Sscanf(sc.Text(), "# dosn-activities %d", &n); err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrBadTraceFormat, sc.Text())
	}
	// The header count is untrusted input: use it only as a bounded
	// capacity hint so a hostile header cannot force a huge allocation.
	const maxHint = 1 << 20
	if n < 0 || n > maxHint {
		n = maxHint
	}
	out := make([]Activity, 0, n)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, ",", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadTraceFormat, line, text)
		}
		if len(out) >= MaxActivities {
			return nil, checkActivityCount("", int64(len(out))+1)
		}
		// IDs parse at 32 bits: a wider one would wrap onto a real user.
		c, err1 := strconv.ParseInt(parts[0], 10, 32)
		rcv, err2 := strconv.ParseInt(parts[1], 10, 32)
		ts, err3 := strconv.ParseInt(parts[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadTraceFormat, line, text)
		}
		out = append(out, Activity{
			Creator:  socialgraph.UserID(c),
			Receiver: socialgraph.UserID(rcv),
			At:       time.Unix(ts, 0).UTC(),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read activities: %w", err)
	}
	return out, nil
}

// Write serializes the dataset (graph then activities) to the two writers.
func (d *Dataset) Write(graphW, actW io.Writer) error {
	if err := d.Graph.WriteEdges(graphW); err != nil {
		return fmt.Errorf("dataset %q graph: %w", d.Name, err)
	}
	if err := d.writeActivityColumns(actW); err != nil {
		return fmt.Errorf("dataset %q activities: %w", d.Name, err)
	}
	return nil
}

// Read deserializes a dataset written by Write and reindexes it.
func Read(name string, graphR, actR io.Reader) (*Dataset, error) {
	g, err := socialgraph.ReadEdges(graphR)
	if err != nil {
		return nil, fmt.Errorf("dataset %q graph: %w", name, err)
	}
	acts, err := ReadActivities(actR)
	if err != nil {
		return nil, fmt.Errorf("dataset %q activities: %w", name, err)
	}
	d := &Dataset{Name: name, Graph: g}
	d.SetActivities(acts)
	d.Reindex()
	return d, nil
}
