package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// iterResult is what one workload iteration hands back for checking: the
// SHA-256 and size of its canonical output and how many operations it
// attempted and found structurally wrong.
type iterResult struct {
	hash   string
	size   int
	ops    int
	failed int
}

// workload is one closed-loop, single-client, fixed-work benchmark case.
type workload interface {
	// setup generates the inputs from the seed. The warm-up iteration is
	// the runner's.
	setup() error
	// iterate runs one iteration, exactly as a user would run it. With a
	// tracer, the layer calls the workload makes itself are recorded as
	// spans; nil is tracing off.
	iterate(t *tracer) (iterResult, error)
	// traced runs one iteration under the wholeSpan span, followed by
	// whatever decomposed layer calls the workload adds to explain it, and
	// collects exact counts into m.
	traced(t *tracer, m map[string]float64) (iterResult, error)
	// probes times the primitives under the layers this workload enters
	// and derives the per-layer metrics from the recorded spans; split is
	// the tracer's selfByName.
	probes(t *tracer, split, m map[string]float64) error
	// iterations is the fixed number of timed iterations of a full run.
	iterations() int
}

// sample is the measurement of one timed iteration.
type sample struct {
	wall, cpu, allocMB, rssMB, gcPauseMS float64
	gcCycles                             uint32
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS makes the kernel start the process's high-water resident set
// again from the current one, so that every iteration gets a peak of its own
// and the reported figure can be their median, not the one worst moment of
// the whole run. Where the kernel refuses, the mark simply keeps rising and
// every iteration reports the peak of the process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status: %w", sc.Err())
}

// checker compares every iteration's output with the pinned hash for the
// seed, or, for a seed without one, with the first iteration's.
type checker struct {
	want      string
	attempted int
	failed    int
	problems  []string
}

func (c *checker) check(r iterResult) {
	c.attempted += r.ops
	failed := r.failed
	switch {
	case c.want == "":
		c.want = r.hash
	case r.hash != c.want:
		c.problems = append(c.problems, fmt.Sprintf("output hash %s, want %s", r.hash, c.want))
		failed = r.ops
	}
	if r.failed > 0 {
		c.problems = append(c.problems, fmt.Sprintf("%d of %d operations failed their structural check", r.failed, r.ops))
	}
	c.failed += failed
}

// timeIteration measures one plain iteration. A collection first puts the
// heap and the pacer in the same state at the start of every iteration, as
// in the fresh process of a one-shot CLI run; without it peak RSS depends on
// where in the previous iteration the last cycle happened to fall. Memory
// statistics are read outside the timed interval; the output check runs
// after both.
func timeIteration(w workload, c *checker) (sample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resetPeakRSS()
	cpu0, t0 := cpuSeconds(), time.Now()
	r, err := w.iterate(nil)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return sample{}, err
	}
	c.check(r)
	return sample{
		wall:      wall,
		cpu:       cpu,
		rssMB:     rss,
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		gcCycles:  after.NumGC - before.NumGC,
	}, nil
}

// stopRule ends a timed loop: after n iterations, or, when seconds is set,
// after the first whole iteration that ends past that many seconds (never
// fewer than minTimedIterations).
type stopRule struct {
	n       int
	seconds float64
}

const minTimedIterations = 3

func (s stopRule) done(iters int, elapsed time.Duration) bool {
	if s.seconds > 0 {
		return iters >= minTimedIterations && elapsed.Seconds() >= s.seconds
	}
	return iters >= s.n
}

// timedLoop runs plain iterations under the stop rule.
func timedLoop(w workload, c *checker, stop stopRule) ([]sample, error) {
	var out []sample
	for start := time.Now(); !stop.done(len(out), time.Since(start)); {
		s, err := timeIteration(w, c)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// setUp generates the inputs and runs the one cold warm-up iteration; it
// returns the whole set-up time and the warm-up's share of it.
func setUp(w workload, c *checker, start time.Time) (setup, cold float64, err error) {
	if err := w.setup(); err != nil {
		return 0, 0, err
	}
	s, err := timeIteration(w, c)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start).Seconds(), s.wall, nil
}

// measureEndToEnd is the untraced pass: set-up, then the timed loop.
// extraSetups are set-up times measured in fresh processes; the reported
// setup_s is the median of those and this process's own.
func measureEndToEnd(w workload, c *checker, start time.Time, stop stopRule, extraSetups []float64, log io.Writer) (map[string]float64, error) {
	setup, _, err := setUp(w, c, start)
	if err != nil {
		return nil, err
	}
	samples, err := timedLoop(w, c, stop)
	if err != nil {
		return nil, err
	}
	walls := column(samples, func(s sample) float64 { return s.wall })
	if spread := iqrShare(walls); spread > 0.15 {
		fmt.Fprintf(log, "warning: iter_wall_s inter-quartile range is %.0f%% of the median over %d iterations; the machine was contended\n", 100*spread, len(walls))
	}
	fmt.Fprintf(log, "N = %d timed iterations, %.1f s timed, fastest %.4f s, iter_wall_s samples %.4f\n", len(samples), sum(walls), slices.Min(walls), walls)
	return map[string]float64{
		"iter_wall_s":       median(walls),
		"iter_cpu_s":        median(column(samples, func(s sample) float64 { return s.cpu })),
		"alloc_mb_per_iter": median(column(samples, func(s sample) float64 { return s.allocMB })),
		"peak_rss_mb":       median(column(samples, func(s sample) float64 { return s.rssMB })),
		"setup_s":           median(append(extraSetups, setup)),
	}, nil
}

// baselineIterations is how many plain iterations a traced pass runs before
// tracing, as the denominator of rt.trace_overhead_ratio.
const baselineIterations = 2

// measureLayers is the traced pass: set-up, a short untraced baseline, the
// decomposed iterations with spans, then the primitive probes.
func measureLayers(w workload, name string, c *checker, start time.Time, stop stopRule, outDir string, log io.Writer) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	_, cold, err := setUp(w, c, start)
	if err != nil {
		return nil, err
	}
	base, err := timedLoop(w, c, stopRule{n: baselineIterations})
	if err != nil {
		return nil, err
	}
	t := newTracer()
	for begin := time.Now(); !stop.done(t.iter, time.Since(begin)); t.iter++ {
		r, err := w.traced(t, m)
		if err != nil {
			return nil, err
		}
		c.check(r)
	}
	split := t.selfByName()
	if err := w.probes(t, split, m); err != nil {
		return nil, err
	}
	if err := t.write(outDir, name); err != nil {
		return nil, err
	}
	walls := column(base, func(s sample) float64 { return s.wall })
	whole := t.each(wholeSpan)
	printSplit(log, split, t.iter, median(whole))
	m["rt.gc_cycles_per_iter"] = median(column(base, func(s sample) float64 { return float64(s.gcCycles) }))
	m["rt.gc_pause_ms_per_iter"] = median(column(base, func(s sample) float64 { return s.gcPauseMS }))
	m["rt.cold_iter_s"] = cold
	m["rt.iter_wall_min_s"] = slices.Min(append(walls, whole...))
	m["rt.trace_overhead_ratio"] = median(whole) / median(walls)
	return m, nil
}

// wholeSpan names the span every workload's traced iteration opens around
// the same call sequence a plain iteration makes.
const wholeSpan = "iteration"

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
