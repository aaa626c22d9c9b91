package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/fault"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// Execution-only telemetry; see internal/obs. Values flow out to the debug
// endpoint and telemetry reports, never back into manifests.
var (
	obsCellsStarted   = obs.C("harness.cells_started")
	obsCellsDone      = obs.C("harness.cells_done")
	obsSchedHits      = obs.C("harness.schedule_cache_hits")
	obsCellsRecovered = obs.C("harness.cells_recovered")
	obsCellsResumed   = obs.C("harness.cells_resumed")
)

// faultScheduleBuild fires inside the shared schedule-cache compute, once per
// repetition, keyed by the spec-derived schedule seed — so which repetition
// fails under a probability trigger is invariant across worker counts and
// across which of two cells wins the race to the same cache entry.
var faultScheduleBuild = fault.NewSite("harness.schedule-build")

// RunOptions tunes execution only; nothing here may change the results.
type RunOptions struct {
	// Workers bounds the number of cells executed concurrently; default
	// NumCPU (capped by the cell count). Workers claim cells in claimOrder
	// through fault.Chunks; one worker runs every cell on the calling
	// goroutine in that order — alternating datasets when the spec has
	// several — which makes it the serial reference execution that
	// fire-on-Nth-hit failpoints are placed against.
	Workers int
	// CoreWorkers bounds core.Run's per-user pool inside each cell; default
	// max(1, NumCPU/Workers) so the two layers together roughly fill the
	// machine without gross oversubscription.
	CoreWorkers int
	// Progress, when set, is called after each finished cell. Calls are
	// serialized; a panicking callback fails the run once the cells in
	// flight have finished.
	Progress func(done, total int, cell CellSpec, elapsed time.Duration)
	// Telemetry, when set, collects per-cell phase breakdowns, worker
	// utilization, and lifecycle events (see internal/obs). Execution-only,
	// like Workers: manifests are byte-identical with or without it
	// (pinned by TestTelemetryDoesNotPerturbManifest).
	Telemetry *obs.Collector
	// CheckpointPath, when set, appends every completed cell result to a
	// crash-safe JSONL journal at this path (fsync per cell). A later run
	// over the same spec with Resume set skips the journaled cells: it is
	// the one way to recover a failed or killed run, since a failed cell is
	// not rerun in process.
	CheckpointPath string
	// Resume restores completed cells from the CheckpointPath journal
	// instead of recomputing them. The journal's spec hash must match; the
	// resumed manifest is byte-identical to an uninterrupted run.
	Resume bool
}

func (o RunOptions) fill(cells int) RunOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if cells > 0 && o.Workers > cells {
		o.Workers = cells
	}
	if o.CoreWorkers <= 0 {
		// Ceil division so that when the cell count caps Workers below the
		// core count, the freed cores flow to the per-cell pools instead of
		// idling: 2 cells on a 7-core box get 4 core workers each (floor
		// would leave a core dark), and the large scale — 2 cells on an
		// N-core box — fans its per-user sweeps and its phase-2 schedule
		// builds out to ~N/2 workers per cell. Mild oversubscription when
		// the division is uneven is goroutine-cheap; idle cores are not.
		o.CoreWorkers = (runtime.NumCPU() + o.Workers - 1) / o.Workers
	}
	return o
}

// lazy computes a value at most once; concurrent callers share the result.
// Failures are NOT memoized: a compute that errors (an injected fault, say)
// leaves the slot empty, so a sibling cell that needs the same value reruns
// the pure computation instead of failing on a stale error. The deferred
// unlock keeps the slot usable when compute panics — the panic unwinds to the
// cell isolation boundary, and the next caller recomputes.
type lazy[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

// get returns the slot's value, computing it if no caller has yet. ran
// reports whether this call ran compute (whether or not it failed): a caller
// that gets ran == false waited on, or reused, another caller's work.
func (l *lazy[T]) get(compute func() (T, error)) (v T, ran bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return l.val, false, nil
	}
	if v, err = compute(); err != nil {
		var zero T
		return zero, true, err
	}
	l.val, l.done = v, true
	return v, true, nil
}

// schedEntry is one (dataset, model) schedule-cache slot. Beyond the lazy
// computation it records whether a cell has asked for it: each cell asks
// once, so every asker after the first is a schedule_cache_hits hit.
type schedEntry struct {
	lazy[[]*onlinetime.Table]
	asked atomic.Bool
}

// caches shares datasets and schedule computations across the cells of one
// run. Keys are value types of the spec, so two cells hit the same entry
// exactly when their results are defined to coincide.
type caches struct {
	mu        sync.Mutex
	datasets  map[string]*lazy[*trace.Dataset]
	schedules map[string]*schedEntry
	rings     map[string]*lazy[*dht.Ring]
	reads     map[string]tableReads // by entry key (job.reads); read-only after newCaches
}

// newCaches returns the empty caches of a run of the given jobs.
func newCaches(jobs []job) *caches {
	c := &caches{
		datasets:  make(map[string]*lazy[*trace.Dataset]),
		schedules: make(map[string]*schedEntry),
		rings:     make(map[string]*lazy[*dht.Ring]),
		reads:     make(map[string]tableReads),
	}
	for _, j := range jobs {
		r, s := j.reads(), c.reads[j.entryKey()]
		c.reads[j.entryKey()] = tableReads{max(s.tables, r.tables), max(s.wide, r.wide)}
	}
	return c
}

// dataset synthesizes (or fetches) the dataset d describes, once per run
// however many cells and figures read it. built reports whether this call
// synthesized it.
func (c *caches) dataset(d DatasetSpec) (ds *trace.Dataset, built bool, err error) {
	c.mu.Lock()
	e, ok := c.datasets[d.key()]
	if !ok {
		e = &lazy[*trace.Dataset]{}
		c.datasets[d.key()] = e
	}
	c.mu.Unlock()
	return e.get(func() (*trace.Dataset, error) { return buildDataset(d) })
}

// ringFor computes (or fetches) the ring shared by every DHT cell over the
// given dataset. The ring is a pure function of the user count — like the
// dataset, it is infrastructure, independent of the root seed — so two cells
// over the same dataset always route on the same ring. built reports whether
// this call built it.
func (c *caches) ringFor(d DatasetSpec, ds *trace.Dataset) (ring *dht.Ring, built bool, err error) {
	c.mu.Lock()
	e, ok := c.rings[d.key()]
	if !ok {
		e = &lazy[*dht.Ring]{}
		c.rings[d.key()] = e
	}
	c.mu.Unlock()
	return e.get(func() (*dht.Ring, error) {
		return dht.BuildRing(ds.NumUsers(), dht.Config{})
	})
}

func (c *caches) scheduleEntry(key string) *schedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.schedules[key]
	if !ok {
		e = &schedEntry{}
		c.schedules[key] = e
	}
	return e
}

// buildDataset synthesizes the dataset a DatasetSpec describes through the
// shared calibrated-construction path (same as dosn.Facebook/Twitter). The
// spec's zero-value defaults (seed, activity filter) are resolved by
// normalized(), matching the identity used for caching and seeds.
func buildDataset(d DatasetSpec) (*trace.Dataset, error) {
	n := d.normalized()
	return trace.SynthesizeCalibrated(n.Name, n.Users, n.Seed, n.MinActivity)
}

// scheduleRows returns what the jobs read of the cell's entry and the rows
// (nil: every row) its tables fill from the first s.wide on: the analysis
// closure of the spec's UserDegree (core.AnalysisRows) that friend cells read.
func (c *caches) scheduleRows(spec MatrixSpec, cell CellSpec, ds *trace.Dataset) (rows []socialgraph.UserID, s tableReads, err error) {
	if s = c.reads[job{spec: spec, cell: cell}.entryKey()]; s.wide >= s.tables {
		return nil, s, nil
	}
	rows, err = core.AnalysisRows(ds.Graph, spec.UserDegree)
	return rows, s, err
}

// schedulesFor computes (or fetches) the schedule tables of the cell's
// entry, as many as its jobs read. Each is built exactly once per (dataset,
// model, rep) for the whole run, filling only the rows its readers read
// (scheduleRows), and jobs sharing the entry reuse the arena read-only. When
// the build over those rows is the same for every seed
// (onlinetime.SeedIndependent), the first repetition's table serves every
// repetition — the same *Table, which core.Run recognizes — while the
// harness.schedule-build failpoint still fires once per repetition.
// buildWorkers is the filling cell's core budget: the parallel phase-2 row
// construction may use it freely because worker counts never reach the table
// bytes. co's cell is marked a hit when another cell asked for the entry
// first — cell-to-cell reuse, execution-only telemetry — and built reports
// whether this call ran the build. The two differ when a cell rebuilds an
// entry whose first asker's build failed. The manifest's ScheduleCacheHits
// is NOT the measured hit count but the spec-derived expectedScheduleHits:
// under resume the measured count shifts (restored cells never ask) while
// the manifest bytes must not.
func (c *caches) schedulesFor(spec MatrixSpec, cell CellSpec, ds *trace.Dataset, model onlinetime.Model, buildWorkers int, co *obs.CellObs) (tables []*onlinetime.Table, built bool, err error) {
	entry := c.scheduleEntry(job{spec: spec, cell: cell}.entryKey())
	if entry.asked.Swap(true) {
		co.MarkScheduleCacheHit()
		obsSchedHits.Inc()
	}
	tables, built, err = entry.get(func() ([]*onlinetime.Table, error) {
		rows, reads, err := c.scheduleRows(spec, cell, ds)
		if err != nil {
			return nil, err
		}
		// The first table fills every row a later one fills.
		once := onlinetime.SeedIndependent(model, ds, rows, buildWorkers)
		out := make([]*onlinetime.Table, reads.tables)
		for rep := range out {
			seed := spec.scheduleSeed(cell.Dataset, cell.Model, rep)
			if err := faultScheduleBuild.InjectSeeded(seed); err != nil {
				return nil, err
			}
			if once && rep > 0 {
				out[rep] = out[0]
			} else if rep < reads.wide {
				out[rep] = onlinetime.ComputeRows(model, ds, seed, buildWorkers, nil)
			} else {
				out[rep] = onlinetime.ComputeRows(model, ds, seed, buildWorkers, rows)
			}
		}
		return out, nil
	})
	return tables, built, err
}

// claimOrder is the order in which workers claim jobs. Each dataset gets a
// list: first every job that shares no schedule entry with an earlier one,
// then the dataset's other jobs, each group in index order. Workers take the
// lists round-robin, datasets in spec order: every dataset's first job,
// then every dataset's second, and so on. Cells() enumerates dataset →
// model → mode, so claiming by index hands two workers the two modes of one
// model and the second idles on the first one's schedule build, and
// claiming one dataset at a time idles the second worker through each
// dataset's single-stream synthesis. This order synthesizes the datasets
// side by side, then starts their builds side by side, and leaves the
// reusers to find their entries built.
func claimOrder(jobs []job) []int {
	var lists, reusers [][]int
	pos := make(map[string]int)
	seen := make(map[string]bool)
	for i, j := range jobs {
		d, ok := pos[j.cell.Dataset.key()]
		if !ok {
			d = len(lists)
			pos[j.cell.Dataset.key()] = d
			lists, reusers = append(lists, nil), append(reusers, nil)
		}
		if k := j.entryKey(); seen[k] && j.reads().tables > 0 {
			reusers[d] = append(reusers[d], i)
		} else {
			seen[k] = true
			lists[d] = append(lists[d], i)
		}
	}
	for d := range lists {
		lists[d] = append(lists[d], reusers[d]...)
	}
	order := make([]int, 0, len(jobs))
	for k := 0; len(order) < len(jobs); k++ {
		for _, l := range lists {
			if k < len(l) {
				order = append(order, l[k])
			}
		}
	}
	return order
}

// job is the unit the cell loop claims and runs: one cell of one spec, or a
// computed entry of the figure door. Run's jobs share its spec; the door's
// cells come from one-cell specs.
type job struct {
	spec     MatrixSpec
	cell     CellSpec
	policies []replica.Policy
	// compute, when set, makes the job the computed entry of the figure with
	// ID figure: instead of sweeping cell, the loop hands compute the cell's
	// dataset and, when the cell names a model, its entry's tables.
	figure  string
	compute func(ds *trace.Dataset, schedules []*onlinetime.Table, shared *caches) (CellResult, error)
}

// tableReads is what jobs read of an entry: its first tables, whole up to wide.
type tableReads struct{ tables, wide int }

// reads is what the job reads of its entry: every table of a sweep cell,
// whole for a DHT cell (it places replicas on any user), and the first,
// whole, of a computed job whose cell names a model (X4 places every user).
func (j job) reads() tableReads {
	switch {
	case j.compute == nil && j.cell.isFriend():
		return tableReads{tables: j.spec.Repeats}
	case j.compute == nil:
		return tableReads{j.spec.Repeats, j.spec.Repeats}
	case j.cell.Model.Kind != "":
		return tableReads{1, 1}
	}
	return tableReads{}
}

// name names the job in telemetry and errors: its cell's key, or its
// figure's ID.
func (j job) name() string {
	if j.compute != nil {
		return j.figure
	}
	return j.cell.Key()
}

// entryKey names the job's schedule-cache entry. Jobs over one (dataset,
// model) share it, whatever their mode, architecture or computed entry, when
// their specs agree on what the tables hold: the rows (UserDegree), the
// table count (Repeats) and the seeds (RootSeed). Within one spec it is
// scheduleKey.
func (j job) entryKey() string {
	return fmt.Sprintf("%s|%d|%d|%d", j.cell.scheduleKey(), j.spec.UserDegree, j.spec.Repeats, j.spec.RootSeed)
}

// jobs returns the jobs of a filled, validated spec: its cells, each with
// the spec's policies.
func (s MatrixSpec) jobs() []job {
	policies := make([]replica.Policy, 0, len(s.Policies))
	for _, name := range s.Policies {
		if p, err := policyByName(name); err == nil { // Validate reports a bad name
			policies = append(policies, p)
		}
	}
	cells := s.Cells()
	out := make([]job, len(cells))
	for i, c := range cells {
		out[i] = job{spec: s, cell: c, policies: policies}
	}
	return out
}

// Run executes every cell of the matrix and returns the assembled manifest.
// The manifest depends only on (spec, root seed): worker counts, scheduling
// and cache state never leak into the output bytes. A failed cell is not
// rerun: once its siblings have finished, the run fails with every failed
// cell's error, in index order, and a Resume over the CheckpointPath journal
// computes only those cells.
func Run(spec MatrixSpec, opts RunOptions) (*RunManifest, error) {
	spec = spec.fill()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs := spec.jobs()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("harness: spec enumerates no cells")
	}
	opts = opts.fill(len(jobs))
	cells := spec.Cells()
	var cp *checkpoint
	restored := map[int]CellResult{}
	if opts.CheckpointPath != "" {
		var err error
		cp, restored, err = openCheckpoint(opts.CheckpointPath, spec, cells, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
	}
	results, errs, err := runJobs(jobs, opts, newCaches(jobs), restored, cp)
	if err != nil {
		return nil, err
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("cell %s: %w", cells[i].Key(), err))
		}
	}
	if err := errors.Join(failed...); err != nil {
		return nil, err
	}
	return &RunManifest{
		Version:           ManifestVersion,
		Spec:              spec,
		ScheduleCacheHits: expectedScheduleHits(cells),
		Cells:             results,
	}, nil
}

// runJobs is the cell loop: workers claim the jobs in claimOrder and run
// each over the shared caches (a restored job takes its journaled result; cp,
// when set, journals the rest). A job's failure lands in errs and never stops
// its siblings; the error return is a panic outside the cell boundary.
func runJobs(jobs []job, opts RunOptions, shared *caches, restored map[int]CellResult, cp *checkpoint) ([]CellResult, []error, error) {
	opts.Telemetry.SetTotalCells(len(jobs))
	opts.Telemetry.SetWorkers(opts.Workers)
	results := make([]CellResult, len(jobs))
	errs := make([]error, len(jobs))
	var mu sync.Mutex // serializes Progress callbacks
	done := 0
	progress := func(cell CellSpec, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock() // a panicking callback must not strand the other workers
		done++
		opts.Progress(done, len(jobs), cell, elapsed)
	}
	order := claimOrder(jobs)
	var workers atomic.Int64
	err := fault.Chunks(len(order), 1, opts.Workers, func(next func() (lo, hi int, ok bool)) error {
		w := int(workers.Add(1) - 1)
		for {
			k, _, ok := next()
			if !ok {
				return nil
			}
			i := order[k]
			j := jobs[i]
			//dosn:wallclock elapsed feeds only the Progress callback; results never read it
			start := time.Now()
			if res, ok := restored[i]; ok {
				// Checkpoint restore: the journaled result is the same pure
				// function of (spec, seed) a recompute would produce, so
				// slotting it in preserves manifest bytes.
				obsCellsResumed.Inc()
				results[i] = res
			} else {
				obsCellsStarted.Inc()
				co := opts.Telemetry.StartCell(j.name(), w)
				results[i], errs[i] = runCellRecovered(j, opts, shared, co)
				co.Done()
				obsCellsDone.Inc()
				if errs[i] == nil && cp != nil {
					errs[i] = cp.append(i, j.cell.canonicalKey(), results[i])
				}
			}
			if opts.Progress != nil {
				progress(j.cell, time.Since(start))
			}
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %w", err)
	}
	return results, errs, nil
}

// expectedScheduleHits is the manifest's ScheduleCacheHits: cells minus
// distinct (dataset, model) pairs. It is derived from the spec rather than
// measured because the measured count is an execution artifact — a resumed
// run requests fewer entries (restored cells never ask), and a sibling that
// rebuilds an entry after the first asker's build failed still counts as a
// reuse — while manifest bytes must depend on (spec, seed) alone. For every
// uninterrupted, fault-free run the two are equal: each distinct pair misses
// exactly once and every other request hits.
func expectedScheduleHits(cells []CellSpec) int {
	distinct := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		distinct[c.scheduleKey()] = struct{}{}
	}
	return len(cells) - len(distinct)
}

// runCellRecovered is the cell isolation boundary: a panic anywhere in the
// job's synchronous call tree (the fan-outs below it bring their
// goroutines' panics back into it, and a failed table build re-raises on
// the goroutine that asked for the table) becomes this job's
// error instead of killing the process, so sibling jobs finish and the
// checkpoint journal stays intact.
func runCellRecovered(j job, opts RunOptions, shared *caches, co *obs.CellObs) (res CellResult, err error) {
	defer func() {
		//dosn:recover cell isolation boundary: a panicking job (injected fault or real bug) becomes a CellResult error; siblings and the journal survive
		if r := recover(); r != nil {
			obsCellsRecovered.Inc()
			res = CellResult{}
			err = fault.PanicError("harness: cell "+j.name(), r, debug.Stack())
		}
	}()
	return runCell(j, opts, shared, co)
}

// runCell executes one cell's replication-degree sweep, or a computed job
// over its dataset and tables. FriendReplica cells sweep the spec's policy
// list; DHT cells sweep their architecture's placement over the dataset's
// shared ring. Only the execution knob CoreWorkers is read from opts; the
// cell result depends on (spec, cell) alone. co (nil when telemetry is off)
// receives the per-phase breakdown: synthesize → ring-build →
// schedule-build → sweep, with core filling the finer sweep-shards/reduce
// split inside the sweep phase. The first three fetch shared cache entries,
// and only the cell that computes an entry books its time there; a cell
// that waits on, or reuses, a sibling's books cache-wait instead.
func runCell(j job, opts RunOptions, shared *caches, co *obs.CellObs) (CellResult, error) {
	spec, cell, policies := j.spec, j.cell, j.policies
	cacheDone := co.CachePhase("synthesize")
	ds, built, err := shared.dataset(cell.Dataset)
	cacheDone(built)
	if err != nil {
		return CellResult{}, err
	}
	if !cell.isFriend() {
		cacheDone = co.CachePhase("ring-build")
		ring, built, err := shared.ringFor(cell.Dataset, ds)
		cacheDone(built)
		if err != nil {
			return CellResult{}, err
		}
		arch, err := dht.NewArchitecture(cell.Arch, ring, ds.Graph, nil)
		if err != nil {
			return CellResult{}, err
		}
		policies = arch.Policies()
	}
	var model onlinetime.Model
	var schedules []*onlinetime.Table
	if j.reads().tables > 0 {
		if model, err = cell.Model.Model(); err != nil {
			return CellResult{}, err
		}
		cacheDone = co.CachePhase("schedule-build")
		schedules, built, err = shared.schedulesFor(spec, cell, ds, model, opts.CoreWorkers, co)
		cacheDone(built)
		if err != nil {
			return CellResult{}, err
		}
	}
	if j.compute != nil {
		return j.compute(ds, schedules, shared)
	}
	seed := spec.CellSeed(cell)
	co.SetSweepWorkers(opts.CoreWorkers)
	phaseDone := co.Phase("sweep")
	res, err := core.Run(core.Config{
		Dataset:    ds,
		Model:      model,
		Mode:       cell.Mode,
		Policies:   policies,
		MaxDegree:  spec.MaxDegree,
		UserDegree: spec.UserDegree,
		Repeats:    spec.Repeats,
		Seed:       seed,
		Workers:    opts.CoreWorkers,
		Schedules:  schedules,
		Obs:        co,
	})
	phaseDone()
	if err != nil {
		return CellResult{}, err
	}
	return newCellResult(cell, seed, res), nil
}
