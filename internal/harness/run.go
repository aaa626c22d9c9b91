package harness

import (
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
	"dosn/internal/trace"
)

// Execution-only telemetry; see internal/obs. Values flow out to the debug
// endpoint and telemetry reports, never back into manifests.
var (
	obsCellsStarted   = obs.C("harness.cells_started")
	obsCellsDone      = obs.C("harness.cells_done")
	obsSchedHits      = obs.C("harness.schedule_cache_hits")
	obsCellsRecovered = obs.C("harness.cells_recovered")
	obsCellsRetried   = obs.C("harness.cells_retried")
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
	// MaxRetries is how many times a failed cell attempt (error, panic, or
	// timeout) is rerun before the failure is reported. Cell results are pure
	// functions of (spec, seed), so retries cannot change manifest bytes —
	// they only matter under transient faults (injected or environmental).
	MaxRetries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt and is capped at 5s. Zero means 50ms.
	RetryBackoff time.Duration
	// CellTimeout bounds one cell attempt; on expiry the attempt counts as
	// failed (and is retried under MaxRetries). The timed-out attempt's
	// goroutine is abandoned — core has no cancellation plumbing — and its
	// eventual result is discarded. Zero disables the watchdog.
	CellTimeout time.Duration
	// CheckpointPath, when set, appends every completed cell result to a
	// crash-safe JSONL journal at this path (fsync per cell). A later run
	// over the same spec with Resume set skips the journaled cells.
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
// leaves the slot empty, so a retried cell reruns the pure computation
// instead of replaying a stale error. The deferred unlock keeps the slot
// usable when compute panics — the panic unwinds to the cell isolation
// boundary, and the next caller recomputes.
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
// computation it records which cell asked for it first, so the
// schedule_cache_hits counter counts reuse by a *different* cell: a cell
// that asks again — a retry, or the retry of an abandoned timed-out
// attempt — is not a hit.
type schedEntry struct {
	lazy[[]*onlinetime.Table]
	firstCell atomic.Int64 // 1 + index of the first cell to ask; 0 until one does
}

// caches shares datasets and schedule computations across the cells of one
// run. Keys are value types of the spec, so two cells hit the same entry
// exactly when their results are defined to coincide.
type caches struct {
	mu        sync.Mutex
	datasets  map[string]*lazy[*trace.Dataset]
	schedules map[string]*schedEntry
	rings     map[string]*lazy[*dht.Ring]
}

func newCaches() *caches {
	return &caches{
		datasets:  make(map[string]*lazy[*trace.Dataset]),
		schedules: make(map[string]*schedEntry),
		rings:     make(map[string]*lazy[*dht.Ring]),
	}
}

func (c *caches) datasetEntry(key string) *lazy[*trace.Dataset] {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.datasets[key]
	if !ok {
		e = &lazy[*trace.Dataset]{}
		c.datasets[key] = e
	}
	return e
}

// ringFor computes (or fetches) the ring shared by every DHT cell over the
// given dataset. The ring is a pure function of (user count, ring bits) —
// like the dataset, it is infrastructure, independent of the root seed — so
// two cells over the same dataset always route on the same ring. built
// reports whether this call built it.
func (c *caches) ringFor(d DatasetSpec, bits int, ds *trace.Dataset) (ring *dht.Ring, built bool, err error) {
	key := fmt.Sprintf("%s|%d", d.key(), bits)
	c.mu.Lock()
	e, ok := c.rings[key]
	if !ok {
		e = &lazy[*dht.Ring]{}
		c.rings[key] = e
	}
	c.mu.Unlock()
	return e.get(func() (*dht.Ring, error) {
		return dht.BuildRing(ds.NumUsers(), dht.Config{Bits: bits})
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

// schedulesFor computes (or fetches) the per-repetition schedule tables
// shared by every cell with the given (dataset, model) coordinates. Each
// table is densified exactly once per (dataset, model, rep) for the whole
// run — cells sharing the coordinates reuse the arena read-only, with no
// per-cell conversion. buildWorkers is the filling cell's core budget: the
// parallel phase-2 row construction may use it freely because worker counts
// never reach the table bytes. hit reports whether a different cell asked
// for the entry first — cell-to-cell reuse, feeding execution-only
// telemetry — and built whether this call ran the build. The two differ
// when a cell rebuilds an entry whose first asker's build failed, or when a
// retry finds its own abandoned attempt's entry. The manifest's
// ScheduleCacheHits is NOT the measured hit count but the spec-derived
// expectedScheduleHits: under resume the measured count shifts (restored
// cells never ask) while the manifest bytes must not.
func (c *caches) schedulesFor(spec MatrixSpec, cell CellSpec, ds *trace.Dataset, model onlinetime.Model, buildWorkers int) (tables []*onlinetime.Table, hit, built bool, err error) {
	entry := c.scheduleEntry(cell.scheduleKey())
	me := int64(cell.Index) + 1
	if !entry.firstCell.CompareAndSwap(0, me) && entry.firstCell.Load() != me {
		hit = true
		obsSchedHits.Inc()
	}
	tables, built, err = entry.get(func() ([]*onlinetime.Table, error) {
		out := make([]*onlinetime.Table, spec.Repeats)
		for rep := range out {
			seed := spec.scheduleSeed(cell.Dataset, cell.Model, rep)
			if err := faultScheduleBuild.InjectSeeded(seed); err != nil {
				return nil, err
			}
			out[rep] = onlinetime.ComputeTable(model, ds, seed, buildWorkers)
		}
		return out, nil
	})
	return tables, hit, built, err
}

// claimOrder is the order in which workers claim cells. Each dataset gets a
// list: first every cell that is the first to need its (dataset, model)
// schedule entry, then the dataset's other cells, each group in index order.
// Workers take the lists round-robin, datasets in spec order: every
// dataset's first cell, then every dataset's second, and so on. Cells()
// enumerates dataset → model → mode, so claiming by index hands two workers
// the two modes of one model and the second idles on the first one's
// schedule build, and claiming one dataset at a time idles the second worker
// through each dataset's single-stream synthesis. This order synthesizes the
// datasets side by side, then starts their builds side by side, and leaves
// the reusers to find their entries built.
func claimOrder(cells []CellSpec) []int {
	var lists, reusers [][]int
	pos := make(map[string]int)
	seen := make(map[string]bool)
	for i, c := range cells {
		d, ok := pos[c.Dataset.key()]
		if !ok {
			d = len(lists)
			pos[c.Dataset.key()] = d
			lists, reusers = append(lists, nil), append(reusers, nil)
		}
		if k := c.scheduleKey(); seen[k] {
			reusers[d] = append(reusers[d], i)
		} else {
			seen[k] = true
			lists[d] = append(lists[d], i)
		}
	}
	for d := range lists {
		lists[d] = append(lists[d], reusers[d]...)
	}
	order := make([]int, 0, len(cells))
	for k := 0; len(order) < len(cells); k++ {
		for _, l := range lists {
			if k < len(l) {
				order = append(order, l[k])
			}
		}
	}
	return order
}

// Run executes every cell of the matrix and returns the assembled manifest.
// The manifest depends only on (spec, root seed): worker counts, scheduling
// and cache state never leak into the output bytes.
func Run(spec MatrixSpec, opts RunOptions) (*RunManifest, error) {
	spec = spec.fill()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("harness: spec enumerates no cells")
	}
	opts = opts.fill(len(cells))

	policies := make([]replica.Policy, len(spec.Policies))
	for i, name := range spec.Policies {
		p, err := policyByName(name)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}

	opts.Telemetry.SetTotalCells(len(cells))
	opts.Telemetry.SetWorkers(opts.Workers)
	shared := newCaches()
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
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
	var mu sync.Mutex // serializes Progress callbacks
	done := 0
	progress := func(cell CellSpec, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock() // a panicking callback must not strand the other workers
		done++
		opts.Progress(done, len(cells), cell, elapsed)
	}
	// A cell's failure lands in errs and never stops its siblings, so the
	// body returns no error; Chunks fails only on a panic outside the cell
	// boundary (a Progress callback's, say).
	order := claimOrder(cells)
	var workers atomic.Int64
	err := fault.Chunks(len(order), 1, opts.Workers, func(next func() (lo, hi int, ok bool)) error {
		w := int(workers.Add(1) - 1)
		for {
			k, _, ok := next()
			if !ok {
				return nil
			}
			i := order[k]
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
				co := opts.Telemetry.StartCell(cells[i].Key(), w)
				results[i], errs[i] = runCellGuarded(spec, cells[i], policies, opts, shared, co)
				co.Done()
				obsCellsDone.Inc()
				if errs[i] == nil && cp != nil {
					errs[i] = cp.append(i, cells[i].canonicalKey(), results[i])
				}
			}
			if opts.Progress != nil {
				progress(cells[i], time.Since(start))
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cells[i].Key(), err)
		}
	}
	return &RunManifest{
		Version:           ManifestVersion,
		Spec:              spec,
		ScheduleCacheHits: expectedScheduleHits(cells),
		Cells:             results,
	}, nil
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

// runCellGuarded is the crash-safety wrapper around one cell: panic
// isolation (runCellRecovered), an optional per-attempt watchdog
// (runCellAttempt), and bounded retries with capped exponential backoff.
// Retrying is sound because cell results are pure functions of (spec, seed)
// and the shared caches never memoize failures.
func runCellGuarded(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (CellResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := runCellAttempt(spec, cell, policies, opts, shared, co)
		if err == nil || attempt >= opts.MaxRetries {
			return res, err
		}
		obsCellsRetried.Inc()
		time.Sleep(retryBackoff(opts.RetryBackoff, attempt))
	}
}

// retryBackoff returns the delay before the retry following failed attempt
// `attempt` (0-based): base<<attempt, capped at 5s.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	const ceiling = 5 * time.Second
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if attempt > 20 { // base is at least 50ms; 50ms<<20 already overshoots the cap
		return ceiling
	}
	if d := base << uint(attempt); d > 0 && d < ceiling {
		return d
	}
	return ceiling
}

// runCellAttempt runs one isolated attempt, racing it against the watchdog
// when CellTimeout is set. A timed-out attempt's goroutine is abandoned (core
// has no cancellation plumbing); it eventually finishes into the buffered
// channel and its result is discarded. The shared caches stay coherent under
// abandonment — lazy computes are pure and complete under their entry lock —
// so a retry or a sibling cell reusing an entry is safe.
func runCellAttempt(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (CellResult, error) {
	if opts.CellTimeout <= 0 {
		return runCellRecovered(spec, cell, policies, opts, shared, co)
	}
	type outcome struct {
		res CellResult
		err error
	}
	ch := make(chan outcome, 1)
	//dosn:go per-attempt watchdog: joined through ch unless the timer wins, and then abandoned to finish into the buffered ch
	go func() {
		r, e := runCellRecovered(spec, cell, policies, opts, shared, co)
		ch <- outcome{r, e}
	}()
	watchdog := time.NewTimer(opts.CellTimeout)
	defer watchdog.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-watchdog.C:
		return CellResult{}, fmt.Errorf("harness: cell attempt exceeded %v timeout", opts.CellTimeout)
	}
}

// runCellRecovered is the cell isolation boundary: a panic anywhere in the
// cell's synchronous call tree (the fan-outs below it bring their
// goroutines' panics back into it, and a failed table build re-raises on
// the goroutine that asked for the table) becomes this cell's
// error instead of killing the process, so sibling cells finish and the
// checkpoint journal stays intact.
func runCellRecovered(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (res CellResult, err error) {
	defer func() {
		//dosn:recover cell isolation boundary: a panicking cell (injected fault or real bug) becomes a CellResult error; siblings and the journal survive
		if r := recover(); r != nil {
			obsCellsRecovered.Inc()
			res = CellResult{}
			err = fault.PanicError("harness: cell "+cell.Key(), r, debug.Stack())
		}
	}()
	return runCell(spec, cell, policies, opts, shared, co)
}

// runCell executes one cell's replication-degree sweep. FriendReplica cells
// sweep the spec's policy list; DHT cells sweep their architecture's
// placement over the dataset's shared ring. Only the execution knob
// CoreWorkers is read from opts; the cell result depends on (spec, cell)
// alone. co (nil when telemetry is off) receives the per-phase
// breakdown: synthesize → ring-build → schedule-build → sweep, with core
// filling the finer sweep-shards/reduce split inside the sweep phase. The
// first three fetch shared cache entries, and only the cell that computes an
// entry books its time there; a cell that waits on, or reuses, a sibling's
// books cache-wait instead.
func runCell(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (CellResult, error) {
	cacheDone := co.CachePhase("synthesize")
	ds, built, err := shared.datasetEntry(cell.Dataset.key()).get(func() (*trace.Dataset, error) {
		return buildDataset(cell.Dataset)
	})
	cacheDone(built)
	if err != nil {
		return CellResult{}, err
	}
	if !cell.isFriend() {
		cacheDone = co.CachePhase("ring-build")
		ring, built, err := shared.ringFor(cell.Dataset, cell.RingBits, ds)
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
	model, err := cell.Model.Model()
	if err != nil {
		return CellResult{}, err
	}
	cacheDone = co.CachePhase("schedule-build")
	schedules, hit, built, err := shared.schedulesFor(spec, cell, ds, model, opts.CoreWorkers)
	cacheDone(built)
	if err != nil {
		return CellResult{}, err
	}
	if hit {
		co.MarkScheduleCacheHit()
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
