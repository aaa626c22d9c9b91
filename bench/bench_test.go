package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	odd := []float64{5, 1, 3}
	even := []float64{4, 1, 3, 2}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{odd, 0.5, 3},
		{even, 0.5, 2.5},
		{even, 0, 1},
		{even, 1, 4},
		{even, 0.25, 1.75},
		{[]float64{7}, 0.95, 7},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(odd, []float64{5, 1, 3}) {
		t.Errorf("quantile reordered its input: %v", odd)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrShare = %v, want 2/3", got)
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{16, 0.95, false}, // a run's 16 iterations support no tail percentile
		{19, 0.5, false},
		{20, 0.5, true},
		{199, 0.95, false},
		{200, 0.95, true},
		{320, 0.95, true}, // four traced node_sync iterations of 80 rounds
		{320, 0.99, false},
	} {
		if got := supportsPercentile(tc.n, tc.p); got != tc.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ns := func(s float64) int64 { return int64(s * 1e9) }
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: ns(10)},
		{ID: 1, Parent: 0, StartNS: ns(1), EndNS: ns(4)},
		{ID: 2, Parent: 0, StartNS: ns(3), EndNS: ns(6)},  // overlaps span 1
		{ID: 3, Parent: 0, StartNS: ns(8), EndNS: ns(12)}, // runs past its parent
		{ID: 4, Parent: 1, StartNS: ns(1), EndNS: ns(2)},  // grandchild: not counted
		{ID: 5, Parent: -1, StartNS: 0, EndNS: ns(1)},
		{ID: 6, Parent: 5, StartNS: 0, EndNS: ns(3)}, // covers the whole parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{0: 3, 1: 2, 4: 1, 5: 0} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNestsAndAggregates(t *testing.T) {
	tr := newTracer()
	for tr.iter = 0; tr.iter < 3; tr.iter++ {
		tr.do("outer", func() {
			tr.do("inner", func() { time.Sleep(time.Millisecond) })
			tr.do("inner", func() {})
		})
	}
	if got := len(tr.each("inner")); got != 6 {
		t.Errorf("%d inner spans, want 6", got)
	}
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		if s.Name == "outer" && s.Parent != -1 {
			t.Errorf("outer span has parent %d", s.Parent)
		}
		if s.Name == "inner" && tr.spans[s.Parent].Name != "outer" {
			t.Errorf("inner span %d has parent %q", s.ID, tr.spans[s.Parent].Name)
		}
		if self[s.ID] < 0 || self[s.ID] > s.seconds() {
			t.Errorf("span %d self time %v outside [0, %v]", s.ID, self[s.ID], s.seconds())
		}
	}
	split := tr.selfByName()
	if outer, inner := split["outer"], split["inner"]; inner < 1e-3 || outer < 0 || outer > inner {
		t.Errorf("self-time split outer %v inner %v: want the sleep booked to inner only", outer, inner)
	}
	if got, ok := split["never opened"]; ok || got != 0 {
		t.Errorf("an unopened span has self time %v", got)
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", func() { ran = true })
	if !ran {
		t.Error("a nil tracer must still call the function")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs applies BENCHMARK.json's limits to a metric table.
func validateDefs(defs []metricDef, maxCount int, seen map[string]bool) error {
	if len(defs) == 0 || len(defs) > maxCount {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), maxCount)
	}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("bad metric name %q", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better = %q", d.Name, d.Better)
		case d.Bound < 0 || d.Bound > 0.25:
			return fmt.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		case seen[d.Name]:
			return fmt.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestMetricTablesAreValid(t *testing.T) {
	seen := map[string]bool{}
	if err := validateDefs(endToEnd, 16, seen); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := validateDefs(perLayer, 128, seen); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %s is not a declared metric", c)
		}
	}
	for _, bad := range []metricDef{
		{"has space", "s", "lower", 0},
		{"", "s", "lower", 0},
		{strings.Repeat("x", 65), "s", "lower", 0},
		{"unit", "not a unit", "lower", 0},
		{"direction", "s", "sideways", 0},
		{"bound", "s", "lower", 0.3},
		{"iter_wall_s", "s", "lower", 0.1}, // already used
	} {
		if err := validateDefs([]metricDef{bad}, 16, seen); err == nil {
			t.Errorf("validateDefs accepted %+v", bad)
		}
	}
	if err := validateDefs(make([]metricDef, 17), 16, map[string]bool{}); err == nil {
		t.Error("validateDefs accepted 17 end-to-end metrics")
	}
}

// TestBenchmarkJSONMatchesTheTables holds BENCHMARK.json to what the command
// prints: the same workloads, the same metrics with the same units,
// directions and bounds, and nothing else.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded: %v)", kind, g.Name, g.Bound, w.Bound, bounded)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

func TestCheckerCountsAWrongHashAgainstEveryOperation(t *testing.T) {
	c := &checker{}
	c.check(iterResult{hash: "a", ops: 24})
	c.check(iterResult{hash: "a", ops: 24, failed: 1})
	if c.attempted != 48 || c.failed != 1 {
		t.Errorf("after one structural failure: attempted %d failed %d", c.attempted, c.failed)
	}
	c.check(iterResult{hash: "b", ops: 24})
	if c.attempted != 72 || c.failed != 25 {
		t.Errorf("after a wrong hash: attempted %d failed %d, want 72 and 25", c.attempted, c.failed)
	}
	pinned := &checker{want: "pin"}
	pinned.check(iterResult{hash: "other", ops: 6})
	if pinned.failed != 6 {
		t.Errorf("first iteration against a pinned hash: failed %d, want 6", pinned.failed)
	}
}

func TestStopRule(t *testing.T) {
	fixed := stopRule{n: 4}
	if fixed.done(3, time.Hour) || !fixed.done(4, 0) {
		t.Error("a fixed count stops at exactly n iterations, whatever the time")
	}
	timed := stopRule{n: 4, seconds: 10}
	if timed.done(2, time.Minute) {
		t.Error("a timed loop runs at least minTimedIterations")
	}
	if timed.done(9, 9*time.Second) || !timed.done(9, 10*time.Second) {
		t.Error("a timed loop stops after the first iteration that ends past the limit")
	}
}

// TestQuickPass runs every workload end to end on small inputs, untraced and
// traced, and checks the printed result against the metric tables. Seed 42
// exercises the pinned hashes, seed 7 the first-iteration identity check.
func TestQuickPass(t *testing.T) {
	begin := time.Now()
	out := t.TempDir()
	for _, seed := range []string{"42", "7"} {
		for _, name := range workloadNames {
			for _, traced := range []string{"0", "1"} {
				if seed == "7" && traced == "1" {
					continue
				}
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", seed, "--trace", traced, "-quick", "-out", out}
				if err := run(time.Now(), args, &stdout, &stderr); err != nil {
					t.Fatalf("%v: %v\n%s", args, err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("%v: correct %v, attempted %d, failed %d", args, r.Correct, r.Attempted, r.Failed)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
					if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
						t.Errorf("%s: no span file: %v", name, err)
					}
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%v: %d metrics, want %d", args, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					// The one difference of two timings may fall either side of 0.
					negative := m.Value < 0 && d.Name != "harness.checkpoint_overhead_ms"
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || negative {
						t.Errorf("%v: metric %s = %+v (present: %v)", args, d.Name, m, ok)
					}
					if traced == "0" && m.Value == 0 {
						t.Errorf("%v: end-to-end metric %s is 0", args, d.Name)
					}
				}
			}
		}
	}
	for _, name := range workloadNames {
		if pinnedHash(options{workload: name, seed: pinnedSeed, quick: true}) == "" ||
			pinnedHash(options{workload: name, seed: pinnedSeed}) == "" {
			t.Errorf("expected.json pins no hash for %s", name)
		}
	}
	if pinnedHash(options{workload: "paper_matrix", seed: 7}) != "" {
		t.Error("only seed 42 has pinned hashes")
	}
	t.Logf("quick pass took %v", time.Since(begin))
}

func TestRefusesUnknownWorkloadAndStrayArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-quick", "stray"}, {"-no-such-flag"}, {"-trace", "2"}} {
		var stdout, stderr bytes.Buffer
		if err := run(time.Now(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
		if stdout.Len() > 0 {
			t.Errorf("run(%v) printed a result: %s", args, stdout.String())
		}
	}
}
