package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
)

// ReportSchema versions the telemetry report layout for downstream tooling.
// Schema 2 added env and calibration, and the cache-wait phase.
const ReportSchema = 2

// Report is the telemetry side artifact (-telemetry out.json). It is never
// part of the canonical manifest: manifests are pure functions of
// (spec, seed), reports are wall-clock truth about one execution.
type Report struct {
	Schema      int                  `json:"schema"`
	Command     string               `json:"command,omitempty"`
	Env         Env                  `json:"env"`
	Calibration Calibration          `json:"calibration"`
	WallMS      float64              `json:"wall_ms"`
	Workers     int                  `json:"workers,omitempty"`
	Cells       []CellReport         `json:"cells,omitempty"`
	Counters    map[string]int64     `json:"counters,omitempty"`
	Timers      map[string]TimerStat `json:"timers,omitempty"`
	Mem         MemSnapshot          `json:"mem"`
}

// CellReport is one cell's execution breakdown.
type CellReport struct {
	Cell             string      `json:"cell"`
	Worker           int         `json:"worker"`
	StartMS          float64     `json:"start_ms"`
	WallMS           float64     `json:"wall_ms"`
	ScheduleCacheHit bool        `json:"schedule_cache_hit,omitempty"`
	Phases           []PhaseStat `json:"phases,omitempty"`
	Sweep            *SweepUtil  `json:"sweep,omitempty"`
}

// SweepUtil summarizes how well a cell's sweep kept its worker pool busy.
// Utilization is busy time over (workers × sweep wall time): 1.0 means
// every worker was busy for the whole sweep; a low max/mean ratio across
// worker spans means a straggler.
type SweepUtil struct {
	Workers     int     `json:"workers"`
	WorkerSpans int64   `json:"worker_spans"`
	Chunks      int64   `json:"chunks"`
	BusyMS      float64 `json:"busy_ms"`
	MaxBusyMS   float64 `json:"max_busy_ms"`
	Utilization float64 `json:"utilization,omitempty"`
}

// MemSnapshot is the runtime.ReadMemStats summary taken at report time.
type MemSnapshot struct {
	HeapAllocMB  float64 `json:"heap_alloc_mb"`
	TotalAllocMB float64 `json:"total_alloc_mb"`
	SysMB        float64 `json:"sys_mb"`
	NumGC        uint32  `json:"num_gc"`
}

// ReadMem snapshots the allocator. Execution-only: deterministic packages
// must not read this back (detrand flags it).
func ReadMem() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSnapshot{
		HeapAllocMB:  mb(ms.HeapAlloc),
		TotalAllocMB: mb(ms.TotalAlloc),
		SysMB:        mb(ms.Sys),
		NumGC:        ms.NumGC,
	}
}

func mb(b uint64) float64 { return float64(int64(float64(b)/(1<<20)*10+0.5)) / 10 }

// heapMB is the live-heap reading stamped onto events and progress lines.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mb(ms.HeapAlloc)
}

// Report assembles the run's telemetry artifact and emits the run_done
// event. command labels the producing invocation; the worker count is the
// one the harness reported through SetWorkers.
func (c *Collector) Report(command string) *Report {
	if c == nil {
		return nil
	}
	wallMS := roundMS(c.sinceMS())
	c.emit(Event{Ev: "run_done", MS: wallMS, HeapMB: heapMB()})

	c.mu.Lock()
	cells := make([]*CellObs, len(c.cells))
	copy(cells, c.cells)
	workers := c.workers
	c.mu.Unlock()

	rep := &Report{
		Schema:      ReportSchema,
		Command:     command,
		Env:         readEnv(),
		Calibration: c.calibration,
		WallMS:      wallMS,
		Workers:     workers,
		Counters:    nonZero(c.reg.Counters()),
		Timers:      c.reg.Timers(),
		Mem:         ReadMem(),
	}
	for _, o := range cells {
		rep.Cells = append(rep.Cells, o.report())
	}
	// Cells complete in scheduling order; report them in start order so two
	// reports of the same spec diff cleanly.
	sort.SliceStable(rep.Cells, func(i, j int) bool { return rep.Cells[i].StartMS < rep.Cells[j].StartMS })
	return rep
}

// report snapshots one cell's telemetry.
func (o *CellObs) report() CellReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	cr := CellReport{
		Cell:             o.key,
		Worker:           o.worker,
		StartMS:          roundMS(o.startMS),
		WallMS:           roundMS(o.wallMS),
		ScheduleCacheHit: o.cacheHit,
		Phases:           make([]PhaseStat, len(o.phases)),
	}
	copy(cr.Phases, o.phases)
	for i := range cr.Phases {
		cr.Phases[i].MS = roundMS(cr.Phases[i].MS)
	}
	if spans := o.workerSpans.Load(); spans > 0 {
		su := &SweepUtil{
			Workers:     o.sweepWorkers,
			WorkerSpans: spans,
			Chunks:      o.chunks.Load(),
			BusyMS:      roundMS(float64(o.busyNS.Load()) / 1e6),
			MaxBusyMS:   roundMS(float64(o.maxBusyNS.Load()) / 1e6),
		}
		if o.sweepWorkers > 0 {
			for _, p := range o.phases {
				if p.Name == "sweep" && p.MS > 0 {
					su.Utilization = roundMS(su.BusyMS / (float64(o.sweepWorkers) * p.MS))
				}
			}
		}
		cr.Sweep = su
	}
	return cr
}

// nonZero drops zero-valued counters from a snapshot: a matrix run should
// not report the wire counters it never touched.
func nonZero(m map[string]int64) map[string]int64 {
	for name, v := range m {
		if v == 0 {
			delete(m, name)
		}
	}
	return m
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
