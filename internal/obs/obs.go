// Package obs is the execution-only observability layer: named atomic
// counters, monotonic phase timers, per-run telemetry collection
// (reports, JSONL event streams, a live progress line), and an opt-in debug
// HTTP endpoint serving pprof and expvar.
//
// Everything in this package is measurement, never physics. Obs values must
// not flow back into simulation results: the detrand analyzer registers the
// package as execution-only — deterministic packages may write to counters
// and spans, but reading a value back (Counter.Value, Registry snapshots,
// ReadMem) from deterministic code is a lint finding. That contract is what
// lets the instrumented pipeline keep its byte-identical-manifest guarantee
// (see harness.TestTelemetryDoesNotPerturbManifest).
//
// The hot-path story: counters are single atomic adds on package-level vars
// (no allocation, so //dosn:hotpath functions may increment them), and all
// heavier work — heap snapshots, event encoding, progress redraws — happens
// only behind a non-nil *Collector / *CellObs, whose methods are nil-receiver
// safe so instrumentation sites call them unconditionally.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing named metric. The zero value is
// usable but unregistered; obtain registered counters via Registry.Counter
// or the package-level C.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one. Safe for concurrent use; allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Safe for concurrent use; allocation-free.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count. Execution-only: deterministic packages
// must not read this back (detrand flags it).
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the counter's registered name ("" for an unregistered zero
// value).
func (c *Counter) Name() string { return c.name }

// Registry is a named metric namespace. Lookups are get-or-create and
// return the same instance for the same name, so instrumented packages
// hoist them into package-level vars and pay only the atomic op per event.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry. Most code uses the package-level
// Default registry; tests use fresh registries for isolation.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		timers:   make(map[string]*Timer),
	}
}

// Default is the process-wide registry. Instrumented packages register
// their metrics here at init; the debug endpoint and telemetry reports
// snapshot it.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &Timer{name: name}
		r.timers[name] = t
	}
	return t
}

// Counters snapshots every registered counter (zeros included — the debug
// endpoint wants the full namespace). Execution-only; see Counter.Value.
func (r *Registry) Counters() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Timers snapshots every timer that has recorded at least one span.
// Execution-only.
func (r *Registry) Timers() map[string]TimerStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]TimerStat, len(r.timers))
	for name, t := range r.timers {
		if s := t.Stat(); s.Count > 0 {
			out[name] = s
		}
	}
	return out
}

// CounterNames returns the registered counter names in sorted order.
func (r *Registry) CounterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// C returns the named counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// T returns the named timer from the Default registry.
func T(name string) *Timer { return Default.Timer(name) }
