package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Event is one line of the JSONL event stream (-events out.jsonl). The
// stream is append-only wall-clock truth about execution — it never feeds
// back into results. Schema:
//
//	{"t_ms":12.3,"ev":"run_start"}
//	{"t_ms":14.0,"ev":"cell_start","cell":"facebook|Sporadic|conrep","worker":2}
//	{"t_ms":201.5,"ev":"phase","cell":"...","phase":"sweep","worker":2,"ms":142.1,"heap_mb":512.0}
//	{"t_ms":203.0,"ev":"cell_done","cell":"...","worker":2,"ms":189.0,"heap_mb":513.2}
//	{"t_ms":950.8,"ev":"run_done","ms":950.8,"heap_mb":301.7}
//
// t_ms is milliseconds since the collector was created; ms is the duration
// of the thing that just finished. worker identifies the harness worker
// goroutine that ran the cell. A harness cell's phases are synthesize,
// ring-build (DHT cells), schedule-build and sweep; the first three only
// for the cell that computed the shared entry, while a cell that waited on,
// or reused, a sibling's entry books cache-wait. Inside a cell, core adds
// sweep-shards and reduce to the report without events.
type Event struct {
	TMS    float64 `json:"t_ms"`
	Ev     string  `json:"ev"`
	Cell   string  `json:"cell,omitempty"`
	Phase  string  `json:"phase,omitempty"`
	Worker int     `json:"worker,omitempty"`
	MS     float64 `json:"ms,omitempty"`
	HeapMB float64 `json:"heap_mb,omitempty"`
}

// Collector gathers one run's telemetry: per-cell phase breakdowns, an
// optional JSONL event stream, and an optional live progress line. A nil
// *Collector is valid everywhere and does nothing, which is the
// zero-cost-when-off switch: instrumentation sites call methods
// unconditionally and pay a nil check when telemetry is disabled.
type Collector struct {
	watch       Watch
	reg         *Registry
	calibration Calibration

	mu       sync.Mutex
	cells    []*CellObs
	events   *json.Encoder
	progress *Progress
	total    int
	done     int
	workers  int
}

// NewCollector starts a collector reading metrics from the Default
// registry. It first runs the ≈ 50 ms calibration loop, before its clock
// starts, so the report carries the machine's score and the run's wall
// time excludes it; a run without a collector pays nothing.
func NewCollector() *Collector {
	cal := calibrate()
	return &Collector{watch: StartWatch(), reg: Default, calibration: cal}
}

// AttachEvents streams JSONL events to w (one Event per line) and emits
// run_start. The caller owns w's lifetime; events stop at Report time with
// run_done.
func (c *Collector) AttachEvents(w io.Writer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = json.NewEncoder(w)
	c.mu.Unlock()
	c.emit(Event{Ev: "run_start"})
}

// AttachProgress routes phase and completion updates to a live progress
// line.
func (c *Collector) AttachProgress(p *Progress) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.progress = p
	c.mu.Unlock()
}

// SetTotalCells tells the collector (and its progress line) how many cells
// the run will execute. The harness calls this once the spec is expanded.
func (c *Collector) SetTotalCells(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.total = n
	p := c.progress
	c.mu.Unlock()
	p.SetTotal(n)
}

// SetWorkers records the cell-level worker count the run actually uses —
// the harness's filled value, not the caller's flag — for the report.
func (c *Collector) SetWorkers(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.workers = n
	c.mu.Unlock()
}

// StartCell begins telemetry for one cell, identified by its manifest key,
// on the given harness worker. Safe from concurrent workers. Returns nil on
// a nil collector.
func (c *Collector) StartCell(key string, worker int) *CellObs {
	if c == nil {
		return nil
	}
	o := &CellObs{col: c, key: key, worker: worker, startMS: c.sinceMS(), watch: StartWatch()}
	c.mu.Lock()
	c.cells = append(c.cells, o)
	c.mu.Unlock()
	c.emit(Event{Ev: "cell_start", Cell: key, Worker: worker})
	return o
}

// sinceMS is milliseconds since the collector started.
func (c *Collector) sinceMS() float64 { return float64(c.watch.ElapsedNS()) / 1e6 }

// emit writes one event line if an event stream is attached. The collector
// stamps t_ms; callers fill the rest.
func (c *Collector) emit(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.events == nil {
		return
	}
	e.TMS = roundMS(c.sinceMS())
	// Encode errors (a closed file, a full disk) must not fail the run:
	// telemetry is a side artifact by contract.
	_ = c.events.Encode(e)
}

// cellDone records a finished cell: progress, event stream.
func (c *Collector) cellDone(o *CellObs, wallMS float64) {
	c.mu.Lock()
	c.done++
	p := c.progress
	c.mu.Unlock()
	p.CellDone()
	c.emit(Event{Ev: "cell_done", Cell: o.key, Worker: o.worker, MS: roundMS(wallMS), HeapMB: heapMB()})
}

// setPhase updates the live progress line's current-phase label.
func (c *Collector) setPhase(label string) {
	c.mu.Lock()
	p := c.progress
	c.mu.Unlock()
	p.SetPhase(label)
}

// CellObs collects one cell's telemetry: a per-phase wall-time breakdown
// and sweep worker-utilization stats. Methods are safe from concurrent
// sweep workers, and a nil *CellObs is valid everywhere and does nothing —
// core.Config carries one only when the caller asked for telemetry.
type CellObs struct {
	col     *Collector
	key     string
	worker  int
	startMS float64
	watch   Watch

	mu     sync.Mutex
	phases []PhaseStat
	wallMS float64

	sweepWorkers int
	cacheHit     bool

	chunks      atomic.Int64
	busyNS      atomic.Int64
	maxBusyNS   atomic.Int64
	workerSpans atomic.Int64
}

// PhaseStat is one named phase of a cell's execution. Repeated phases (one
// schedule build per repetition, one sweep per repetition) accumulate into
// a single entry.
type PhaseStat struct {
	Name   string  `json:"name"`
	MS     float64 `json:"ms"`
	Calls  int64   `json:"calls"`
	HeapMB float64 `json:"heap_mb,omitempty"`
}

// CacheWait is the phase a cell books for the time it spent waiting on, or
// reusing, a shared cache entry another cell computed.
const CacheWait = "cache-wait"

// Phase starts a named phase and returns the function that ends it. The
// end function records the accumulated duration, snapshots the heap, and
// emits a phase event. Typical use: done := co.Phase("sweep"); ...; done().
func (o *CellObs) Phase(name string) func() {
	if o == nil {
		return func() {}
	}
	w := o.startPhase(name)
	return func() { o.endPhase(name, w) }
}

// CachePhase starts a phase that fetches a shared cache entry. Its end
// function books the time under name when this cell computed the entry,
// and under CacheWait when the cell waited on, or reused, one another cell
// computed: a wait is not the work it waited for.
func (o *CellObs) CachePhase(name string) func(computed bool) {
	if o == nil {
		return func(bool) {}
	}
	w := o.startPhase(name)
	return func(computed bool) {
		if computed {
			o.endPhase(name, w)
		} else {
			o.endPhase(CacheWait, w)
		}
	}
}

func (o *CellObs) startPhase(name string) Watch {
	o.col.setPhase(o.key + " · " + name)
	return StartWatch()
}

func (o *CellObs) endPhase(name string, w Watch) {
	ns := w.ElapsedNS()
	heap := heapMB()
	ms := float64(ns) / 1e6
	o.mu.Lock()
	st := o.phaseLocked(name)
	st.MS += ms
	st.Calls++
	st.HeapMB = heap
	o.mu.Unlock()
	o.col.emit(Event{Ev: "phase", Cell: o.key, Phase: name, Worker: o.worker, MS: roundMS(ms), HeapMB: heap})
}

// AddPhaseNS accumulates ns nanoseconds into a named phase without heap
// snapshots or events — the fine-grained form core.sweepOnce uses per
// repetition, where a ReadMemStats per call would be noise.
func (o *CellObs) AddPhaseNS(name string, ns int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	st := o.phaseLocked(name)
	st.MS += float64(ns) / 1e6
	st.Calls++
	o.mu.Unlock()
}

// phaseLocked returns the named phase entry, appending one if new. Caller
// holds o.mu.
func (o *CellObs) phaseLocked(name string) *PhaseStat {
	for i := range o.phases {
		if o.phases[i].Name == name {
			return &o.phases[i]
		}
	}
	o.phases = append(o.phases, PhaseStat{Name: name})
	return &o.phases[len(o.phases)-1]
}

// SetSweepWorkers records the core worker budget, the denominator of the
// sweep utilization ratio.
func (o *CellObs) SetSweepWorkers(n int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.sweepWorkers = n
	o.mu.Unlock()
}

// MarkScheduleCacheHit notes that this cell reused a schedule set another
// cell already built.
func (o *CellObs) MarkScheduleCacheHit() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.cacheHit = true
	o.mu.Unlock()
}

// AddChunks counts swept user chunks attributed to this cell. Called from
// the sweep hot path: a nil check plus an atomic add.
func (o *CellObs) AddChunks(n int64) {
	if o == nil {
		return
	}
	o.chunks.Add(n)
}

// WorkerBusy records one sweep worker goroutine's busy time. The max across
// workers exposes imbalance (a straggler worker) that the sum alone hides.
func (o *CellObs) WorkerBusy(ns int64) {
	if o == nil {
		return
	}
	o.workerSpans.Add(1)
	o.busyNS.Add(ns)
	for {
		cur := o.maxBusyNS.Load()
		if ns <= cur || o.maxBusyNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Done finalizes the cell: records its wall time and notifies the
// collector (progress, cell_done event).
func (o *CellObs) Done() {
	if o == nil {
		return
	}
	wallMS := float64(o.watch.ElapsedNS()) / 1e6
	o.mu.Lock()
	o.wallMS = wallMS
	o.mu.Unlock()
	o.col.cellDone(o, wallMS)
}

// roundMS trims a millisecond reading to microsecond precision so event
// lines and reports stay readable.
func roundMS(ms float64) float64 {
	return float64(int64(ms*1000+0.5)) / 1000
}
