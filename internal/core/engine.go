// Package core implements the paper's trace-replay simulator: it computes
// profile replication points for every user under a replica-placement policy
// and an online-time model, replays the activity trace, and measures the
// efficiency metrics of §II-C as the replication degree varies (§IV-B).
//
// The engine exploits the fact that all three policies are incremental (the
// selection for budget r is a prefix of the selection for budget r+1), so a
// full 0..MaxDegree sweep costs one policy run per user. Up to Workers
// workers claim fixed index-ordered user chunks (fault.Chunks, the one
// chunked fan-out the sweep, the placement pass and the schedule-table fill
// share) and reduce them into per-chunk Welford grids that are merged in
// chunk order, so sweeps over tens of thousands of users run in seconds and
// results are bit-identical regardless of worker count or goroutine
// scheduling.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"dosn/internal/fault"
	"dosn/internal/interval"
	"dosn/internal/metrics"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/stats"
	"dosn/internal/trace"
)

// Execution-only telemetry. Counters are single atomic adds at chunk or
// seed granularity — cheap enough to stay on unconditionally — and their
// values are never read back on this side of the obs boundary, so results
// stay a pure function of (spec, seed).
var (
	obsChunksSwept  = obs.C("core.sweep_chunks")
	obsUsersSwept   = obs.C("core.sweep_users")
	obsRNGSeeded    = obs.C("core.rng_seeded")
	obsSweepsReused = obs.C("core.sweeps_reused") // (repetition, policy) columns copied, not swept
)

// Failpoints on the sweep's fragile seams (see internal/fault): disabled
// they are one atomic load each, armed they let chaos tests kill the start of
// a repetition's sweep (core.sweep-shard, before the fan-out starts), a worker
// mid-chunk, or a reduce step deterministically.
var (
	faultSweepShard = fault.NewSite("core.sweep-shard")
	faultSweepChunk = fault.NewSite("core.sweep-chunk")
	faultReduce     = fault.NewSite("core.reduce")
)

// Metric identifies one of the efficiency metrics a sweep records.
type Metric int

const (
	// MetricAvailability is the fraction of the day the profile is online.
	MetricAvailability Metric = iota + 1
	// MetricAoDTime is availability-on-demand-time.
	MetricAoDTime
	// MetricAoDActivity is availability-on-demand-activity.
	MetricAoDActivity
	// MetricDelayHours is the worst-case update-propagation delay in hours.
	MetricDelayHours
	// MetricEffectiveReplicas is the number of replicas the policy actually
	// used (ConRep may use fewer than the budget; paper §V-A1).
	MetricEffectiveReplicas
)

func (m Metric) String() string {
	switch m {
	case MetricAvailability:
		return "availability"
	case MetricAoDTime:
		return "availability-on-demand-time"
	case MetricAoDActivity:
		return "availability-on-demand-activity"
	case MetricDelayHours:
		return "delay (in hours)"
	case MetricEffectiveReplicas:
		return "effective replicas"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Config parameterizes one replication-degree sweep.
type Config struct {
	// Dataset is the trace to replay.
	Dataset *trace.Dataset
	// Model approximates user online times.
	Model onlinetime.Model
	// Mode selects ConRep or UnconRep placement.
	Mode replica.Mode
	// Policies are evaluated side by side; defaults to the paper's three.
	Policies []replica.Policy
	// MaxDegree is the largest replication degree; the sweep covers
	// 0..MaxDegree. The paper uses 10.
	MaxDegree int
	// UserDegree restricts the user population to users with exactly this
	// many friends/followers (the paper uses degree 10, the modal degree of
	// both datasets). Ignored when Users is set. Zero selects the modal
	// degree >= 5 automatically.
	UserDegree int
	// Users explicitly lists the users to average over.
	Users []socialgraph.UserID
	// Repeats re-runs the experiment with fresh randomness and averages,
	// as the paper does (5×) for randomized configurations. Default 1.
	Repeats int
	// Seed drives all randomness in the sweep.
	Seed int64
	// Workers bounds the sweep's fan-out; default runtime.NumCPU(). The
	// result does not depend on the worker count.
	Workers int
	// Obs, when non-nil, receives execution telemetry for this sweep:
	// fine-grained phase accumulation (schedule-build for the tables the
	// sweep builds itself, sweep-shards vs reduce), per-chunk counts and
	// per-worker busy time. Execution-only, exactly like Workers: a nil or
	// non-nil Obs never changes the result bits.
	Obs *obs.CellObs
	// Schedules optionally supplies precomputed per-repetition schedule
	// tables (Schedules[rep], user-indexed arena rows). When set for a
	// repetition, the engine uses it instead of building one, which lets
	// callers build each (dataset, model, rep) schedule once and share it
	// across every sweep with those coordinates — see internal/harness.
	// Repetitions beyond len(Schedules) fall back to a table built in line.
	// A supplied table need only fill the rows the sweep reads: every user
	// of Users and each of their candidates (AnalysisRows, when UserDegree
	// chooses the users). A repetition whose table is the same
	// *Table as an earlier repetition's — a seed-independent schedule
	// built once — reuses that repetition's results for every policy that
	// draws no randomness (replica.Traits), instead of sweeping it again.
	Schedules []*onlinetime.Table
}

// Errors returned by Run.
var (
	ErrNoDataset = errors.New("core: config needs a dataset")
	ErrNoUsers   = errors.New("core: no users match the requested degree")
)

func (c *Config) fill() error {
	if c.Dataset == nil {
		return ErrNoDataset
	}
	if c.Model == nil {
		c.Model = onlinetime.Sporadic{}
	}
	if c.Mode == 0 {
		c.Mode = replica.ConRep
	}
	if len(c.Policies) == 0 {
		c.Policies = replica.DefaultPolicies()
	}
	if c.MaxDegree <= 0 {
		c.MaxDegree = 10
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	for rep, t := range c.Schedules {
		if t != nil && t.NumUsers() < c.Dataset.NumUsers() {
			return fmt.Errorf("core: Schedules[%d] covers %d users, dataset has %d", rep, t.NumUsers(), c.Dataset.NumUsers())
		}
	}
	if len(c.Users) == 0 {
		users, err := analysisUsers(c.Dataset.Graph, c.UserDegree)
		if err != nil {
			return err
		}
		c.Users = users
	}
	return nil
}

// analysisUsers resolves the population a sweep or ablation averages over:
// the users with exactly userDegree friends, or with the modal degree >= 5
// when userDegree is zero or negative (the paper's degree-10 population).
func analysisUsers(g *socialgraph.Graph, userDegree int) ([]socialgraph.UserID, error) {
	if userDegree <= 0 {
		d, ok := g.ModalDegree(5)
		if !ok {
			return nil, ErrNoUsers
		}
		userDegree = d
	}
	users := g.UsersWithDegree(userDegree)
	if len(users) == 0 {
		return nil, fmt.Errorf("%w: degree %d", ErrNoUsers, userDegree)
	}
	return users, nil
}

// AnalysisRows returns the schedule rows a sweep over the analysis
// population of userDegree reads (resolved as Run resolves it): every
// analysed user and each of their placement candidates, the user's
// Graph.Neighbors, in ascending order. A table that fills these rows sweeps
// to the same bits as a full one (onlinetime.ComputeRows).
func AnalysisRows(g *socialgraph.Graph, userDegree int) ([]socialgraph.UserID, error) {
	users, err := analysisUsers(g, userDegree)
	if err != nil {
		return nil, err
	}
	n := len(users)
	for _, u := range users {
		n += len(g.Neighbors(u))
	}
	rows := append(make([]socialgraph.UserID, 0, n), users...)
	for _, u := range users {
		rows = append(rows, g.Neighbors(u)...)
	}
	slices.Sort(rows)
	return slices.Compact(rows), nil
}

// Cell is one aggregated data point of a sweep: a (policy, degree) pair.
type Cell struct {
	Availability stats.Welford
	AoDTime      stats.Welford
	AoDActivity  stats.Welford
	DelayHours   stats.Welford
	Effective    stats.Welford
}

func (c *Cell) merge(o *Cell) {
	c.Availability.Merge(o.Availability)
	c.AoDTime.Merge(o.AoDTime)
	c.AoDActivity.Merge(o.AoDActivity)
	c.DelayHours.Merge(o.DelayHours)
	c.Effective.Merge(o.Effective)
}

// value returns the mean of the requested metric.
func (c *Cell) value(m Metric) float64 {
	switch m {
	case MetricAvailability:
		return c.Availability.Mean()
	case MetricAoDTime:
		return c.AoDTime.Mean()
	case MetricAoDActivity:
		return c.AoDActivity.Mean()
	case MetricDelayHours:
		return c.DelayHours.Mean()
	case MetricEffectiveReplicas:
		return c.Effective.Mean()
	default:
		return 0
	}
}

// Result is the outcome of a sweep: one Cell per (policy, degree).
type Result struct {
	DatasetName string
	ModelName   string
	Mode        replica.Mode
	Degrees     []int    // 0..MaxDegree
	Policies    []string // policy names, plot order
	Users       int      // users averaged over
	Repeats     int
	Cells       [][]Cell // [policy][degreeIndex]
}

// Value returns the mean of metric m for the given policy index and degree
// index.
func (r *Result) Value(policy, degreeIdx int, m Metric) float64 {
	return r.Cells[policy][degreeIdx].value(m)
}

// MetricSeries extracts one plottable series per policy for the metric,
// against the degrees 0..MaxDegree.
func (r *Result) MetricSeries(m Metric) []plot.Series {
	out := make([]plot.Series, len(r.Policies))
	for pi, name := range r.Policies {
		ys := make([]float64, len(r.Degrees))
		for di := range r.Degrees {
			ys[di] = r.Value(pi, di, m)
		}
		out[pi] = plot.Categorical(name, ys...)
	}
	return out
}

// Last returns the metric value at the largest swept degree.
func (r *Result) Last(policy int, m Metric) float64 {
	return r.Value(policy, len(r.Degrees)-1, m)
}

// Run executes the sweep described by cfg.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	res := &Result{
		DatasetName: cfg.Dataset.Name,
		ModelName:   cfg.Model.Name(),
		Mode:        cfg.Mode,
		Users:       len(cfg.Users),
		Repeats:     cfg.Repeats,
	}
	for d := 0; d <= cfg.MaxDegree; d++ {
		res.Degrees = append(res.Degrees, d)
	}
	for _, p := range cfg.Policies {
		res.Policies = append(res.Policies, p.Name())
	}
	res.Cells = newGrid(len(cfg.Policies), cfg.MaxDegree+1)

	// One repetition at a time: take or build its table, sweep, and merge
	// the grid in repetition order. A table seen before brings the grid of
	// the first repetition that swept it.
	first := make(map[*onlinetime.Table][][]Cell)
	for rep := 0; rep < cfg.Repeats; rep++ {
		table := cfg.table(rep)
		grid, err := sweepOnce(cfg, table, rep, first[table])
		if err != nil {
			return nil, err
		}
		if _, ok := first[table]; !ok {
			first[table] = grid
		}
		mergeGrids(res.Cells, grid)
	}
	return res, nil
}

// table returns the schedule table of one repetition: the caller's from
// Schedules when it supplies one, otherwise built on the calling goroutine
// by repTable, its time booked as the schedule-build phase. A failed build
// panics here, on every repetition alike (BuildTable has no error path).
func (c *Config) table(rep int) *onlinetime.Table {
	if rep < len(c.Schedules) && c.Schedules[rep] != nil {
		return c.Schedules[rep]
	}
	sw := obs.StartWatch()
	defer func() { c.Obs.AddPhaseNS("schedule-build", sw.ElapsedNS()) }()
	return repTable(c.Model, c.Dataset, c.Seed, rep, c.Workers)
}

// repTable builds the schedule table of repetition rep from its own seed,
// mix(seed, rep), so no repetition's randomness depends on another's. Run's
// own tables and RunArchComparison's shared ones both come from here.
func repTable(model onlinetime.Model, ds *trace.Dataset, seed int64, rep, workers int) *onlinetime.Table {
	return onlinetime.ComputeTable(model, ds, mix(seed, int64(rep)), workers)
}

// tableRows returns the rows of a caller's schedule table, which must be
// built over ds: the experiments read every user's row.
func tableRows(ds *trace.Dataset, t *onlinetime.Table) ([]interval.Bitmap, error) {
	switch {
	case ds == nil:
		return nil, ErrNoDataset
	case t == nil || t.NumUsers() != ds.NumUsers():
		return nil, fmt.Errorf("core: an experiment needs a schedule table of the dataset's %d users", ds.NumUsers())
	}
	return t.Bitmaps(), nil
}

func newGrid(policies, degrees int) [][]Cell {
	g := make([][]Cell, policies)
	for i := range g {
		g[i] = make([]Cell, degrees)
	}
	return g
}

func mergeGrids(dst, src [][]Cell) {
	for i := range dst {
		for j := range dst[i] {
			dst[i][j].merge(&src[i][j])
		}
	}
}

// sweepChunkSize fixes the user-chunk granularity of the parallel sweep.
// Chunk boundaries depend only on the user list, never on the worker count,
// which is what keeps the reduction order — and the result bits — stable.
// The size balances scheduling overhead against parallelism: the default
// analysis population (users at one degree) is often only a few hundred
// users, and a 16-user chunk still spreads that over every core.
const sweepChunkSize = 16

// sweepOnce processes all users for one repetition: one chunked fan-out
// (fault.Chunks), one join, one chunk-order reduce. Workers claim fixed
// index-ordered chunks of users and reduce each chunk's samples in user order
// into a per-chunk grid; after the join the chunk grids are merged
// sequentially in chunk order. The chunk partition, the per-chunk
// accumulation order, and the chunk-order merge are all fixed by the user
// list alone, so the result is bit-identical regardless of worker count or
// goroutine scheduling. Live memory is one grid per chunk (policies × degrees
// cells): the sweep covers the users at one degree, ≈ 2.7 % of a dataset, so
// even the million-user tier holds 1,571 chunk grids — 6.4 MB beside a
// multi-GB dataset — and needs no bound.
//
// The repetition's schedule table is shared read-only: its arena rows are
// the bitmap slice every worker reads, with no densification step on this
// path (the table was dense from construction).
//
// When prior is the grid of an earlier repetition over the same table, the
// policies that draw no randomness are not swept again: their columns are
// prior's, which the same table, users and selections would reproduce bit
// for bit. Only the randomized policies are swept — their generators are
// seeded by repetition — and with none of them there is no sweep at all.
//
// A worker that fails — an injected error, a panic in a policy or a metric —
// voids the repetition: fault.Chunks stops handing out chunks, joins, and
// returns the failure (a panic as an error carrying the worker's stack) as
// this sweep's error; the partially filled chunk grids go with it.
func sweepOnce(cfg Config, table *onlinetime.Table, rep int, prior [][]Cell) ([][]Cell, error) {
	reused := make([]bool, len(cfg.Policies))
	swept := make([]replica.Policy, 0, len(cfg.Policies))
	for pi, p := range cfg.Policies {
		reused[pi] = prior != nil && !replica.TraitsOf(p).UsesRNG
		if !reused[pi] {
			swept = append(swept, p)
		}
	}
	grid, err := sweepPolicies(cfg, table, rep, reused, swept)
	if err != nil {
		return nil, err
	}
	for pi, r := range reused {
		if r {
			grid[pi] = prior[pi]
			obsSweepsReused.Inc()
		}
	}
	return grid, nil
}

// sweepPolicies is sweepOnce's fan-out over the policies not marked reused
// (swept lists them); the reused columns of the grid it returns are empty.
func sweepPolicies(cfg Config, table *onlinetime.Table, rep int, reused []bool, swept []replica.Policy) ([][]Cell, error) {
	grid := newGrid(len(cfg.Policies), cfg.MaxDegree+1)
	if len(swept) == 0 {
		return grid, nil
	}
	if err := faultSweepShard.InjectSeeded(mix(cfg.Seed, int64(rep), 0)); err != nil {
		return nil, err
	}
	chunks := make([][][]Cell, (len(cfg.Users)+sweepChunkSize-1)/sweepChunkSize)
	sw := obs.StartWatch()
	err := fault.Chunks(len(cfg.Users), sweepChunkSize, cfg.Workers, func(next func() (lo, hi int, ok bool)) error {
		// Busy time per worker per repetition: sum against max across workers
		// is what exposes imbalance. The reading goes only into obs.
		busy := obs.StartWatch()
		defer func() { cfg.Obs.WorkerBusy(busy.ElapsedNS()) }()
		return sweepChunks(cfg, table.Bitmaps(), rep, reused, swept, chunks, next)
	})
	cfg.Obs.AddPhaseNS("sweep-shards", sw.ElapsedNS())
	sw = obs.StartWatch()
	if err != nil {
		return nil, err
	}
	if err := faultReduce.InjectSeeded(mix(cfg.Seed, int64(rep), 0)); err != nil {
		return nil, err
	}

	for _, g := range chunks {
		mergeGrids(grid, g)
	}
	cfg.Obs.AddPhaseNS("reduce", sw.ElapsedNS())
	return grid, nil
}

// sweepChunks is one worker's loop: reduce each claimed chunk's users in
// order into that chunk's grid, for the policies not marked reused (swept
// lists them). The worker owns one sweepScratch and one replica.Placer,
// which prepares only what the swept policies read, so the per-user metric
// accumulation allocates nothing beyond the policy selections; chunks[ci]
// is written only by the worker that claimed chunk ci. The chunk counters
// are single atomic adds per 16-user chunk — allocation-free and cheap
// enough to stay on unconditionally.
//
//dosn:hotpath
func sweepChunks(cfg Config, bitmaps []interval.Bitmap, rep int, reused []bool, swept []replica.Policy, chunks [][][]Cell, next func() (lo, hi int, ok bool)) error {
	var scratch sweepScratch
	pl := replica.NewPlacer(cfg.Dataset, bitmaps, cfg.Mode, cfg.MaxDegree, swept...)
	for lo, hi, ok := next(); ok; lo, hi, ok = next() {
		ci := lo / sweepChunkSize
		if err := faultSweepChunk.InjectSeeded(mix(cfg.Seed, int64(rep), int64(ci))); err != nil {
			return err
		}
		g := newGrid(len(cfg.Policies), cfg.MaxDegree+1)
		for _, u := range cfg.Users[lo:hi] {
			sweepUser(cfg, pl, rep, reused, u, g, &scratch)
		}
		chunks[ci] = g
		obsChunksSwept.Inc()
		obsUsersSwept.Add(int64(hi - lo))
		cfg.Obs.AddChunks(1)
	}
	return nil
}

// sweepScratch holds one worker's reusable buffers: the incrementally grown
// availability bitmap, the union of the friends' online times, the
// received-activity minutes, the delay calculator's per-user gap memo and
// distance matrix, and the generator the randomized policies draw from.
// Reusing it across users removes every per-user metric allocation from the
// sweep hot path.
type sweepScratch struct {
	avail         interval.Bitmap
	friendsOnline interval.Bitmap
	actMinutes    []int
	delay         metrics.DelayCalc
	aod           metrics.AoDTracker
	rng           workerRNG
}

// sweepUser evaluates every policy not marked reused and every replication
// degree for one user, accumulating into grid. All interval arithmetic runs
// on the dense bitmap rows. The worker's Placer prepares the placement input
// once per user — only what the policies' replica.Traits declare they read
// — and only randomized policies get a generator, reseeded in O(1)
// (workerRNG).
//
// The degree loop is a one-pass incremental kernel: each step grows the
// availability bitmap and reads back its measure and its overlap with the
// friends' online time from the single fused word traversal
// (interval.OrWithOverlapCount), the AoD-activity hit count advances only by
// the newly set bits (metrics.AoDTracker), and a degree that adds no replica
// (budget beyond the selection) or no new minute reuses the previous step's
// integers outright.
// Every reused or incrementally maintained quantity is the same integer the
// full rescan produced, so every float added to the Welford cells is
// bit-identical to the three-pass loop this replaces.
//
//dosn:hotpath
func sweepUser(cfg Config, pl *replica.Placer, rep int, reused []bool, u socialgraph.UserID, grid [][]Cell, scratch *sweepScratch) {
	ds := cfg.Dataset
	in := pl.Input(u)
	bitmaps := in.Bitmaps

	// Union of the friends' online times: the AoD-time denominator.
	scratch.friendsOnline.Clear()
	for _, f := range in.Candidates {
		if int(f) < len(bitmaps) {
			scratch.friendsOnline.OrWith(&bitmaps[f])
		}
	}
	friendsOnlineLen := scratch.friendsOnline.Minutes()

	// Minutes-of-day of the received activities, pulled straight off the
	// timestamp column once per user instead of once per (policy, degree)
	// membership scan — no activity rows are materialized.
	scratch.actMinutes = scratch.actMinutes[:0]
	for _, k := range ds.ReceivedIdx(u) {
		scratch.actMinutes = append(scratch.actMinutes, ds.MinuteOfDayAt(int(k)))
	}
	scratch.aod.InitUser(scratch.actMinutes)
	// Pairwise node gaps are memoized per user: the policies choose from the
	// same candidates, so each distinct pair's gap is computed once across
	// all of them; each degree's delay is the shortest-path diameter over a
	// prefix of one policy's selection.
	scratch.delay.Init(u, nil, bitmaps)
	for pi, p := range cfg.Policies {
		if reused[pi] {
			continue
		}
		var rng *rand.Rand
		if replica.TraitsOf(p).UsesRNG {
			rng = scratch.rng.seeded(mix(cfg.Seed, int64(rep), int64(pi), int64(u)))
		}
		seq := p.Select(in, rng)
		scratch.delay.Reselect(seq)
		scratch.avail.CopyFrom(&bitmaps[u]) // degree 0: only the owner stores the profile
		availLen := scratch.avail.Minutes()
		overlap := scratch.avail.OverlapMinutes(&scratch.friendsOnline)
		scratch.aod.Reset(&scratch.avail)
		aodVal, aodOK := scratch.aod.Value()
		delayHours, prevK := 0.0, 0
		for r := 0; r <= cfg.MaxDegree; r++ {
			k := r
			if k > len(seq) {
				k = len(seq)
			}
			if r > 0 && k == r { // grow the availability set incrementally
				prevLen := availLen
				availLen, overlap = scratch.avail.OrWithOverlapCount(&bitmaps[seq[k-1]], &scratch.friendsOnline)
				if availLen != prevLen {
					// New minutes were covered (equal popcount of a grown
					// union means an unchanged set): fold exactly those bits
					// into the AoD-activity hit count.
					scratch.aod.Advance(&scratch.avail)
					aodVal, aodOK = scratch.aod.Value()
				}
			}
			if k != prevK || r == 0 {
				// The node set {owner} ∪ seq[:k] changed (a subset-schedule
				// replica still adds connectivity edges), so the diameter
				// must be recomputed even when availability did not move.
				delayHours = scratch.delay.Prefix(k).Hours
				prevK = k
			}
			cell := &grid[pi][r]
			cell.Availability.Add(float64(availLen) / interval.DayMinutes)
			if friendsOnlineLen > 0 {
				cell.AoDTime.Add(float64(overlap) / float64(friendsOnlineLen))
			}
			if aodOK {
				cell.AoDActivity.Add(aodVal)
			}
			cell.DelayHours.Add(delayHours)
			cell.Effective.Add(float64(k))
		}
	}
}

// mix hashes the parts into a deterministic RNG seed (splitmix64-style), so
// per-user randomness is independent of worker scheduling.
func mix(parts ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		x := uint64(p) + 0x9E3779B97F4A7C15 + h
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		h = x
	}
	return int64(h)
}
