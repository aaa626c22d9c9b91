package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Parent is the ID of the
// enclosing span, -1 at the top; Iter is the traced iteration it belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Iter    int    `json:"iter"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. It is used from the
// benchmark's single driving goroutine only.
type tracer struct {
	t0    time.Time
	iter  int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a span named name under the currently open span. On a nil
// tracer it only calls fn.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: t.iter})
	t.stack = append(t.stack, id)
	t.spans[id].StartNS = int64(time.Since(t.t0))
	fn()
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, for every span, its duration minus the part of its
// interval its direct children cover, in seconds. Children are clipped to the
// parent and overlapping children are counted once, so no entry is negative.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make([]float64, len(spans))
	for i, p := range spans {
		ks := kids[p.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].StartNS < ks[b].StartNS })
		covered, end := int64(0), p.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, end), min(k.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[i] = float64(p.EndNS-p.StartNS-covered) / 1e9
	}
	return out
}

// selfByName is, per span name, the median over traced iterations of the
// self time spent under that name: the split a reader checks a layer's claim
// against.
func (t *tracer) selfByName() map[string]float64 {
	self := selfTimes(t.spans)
	sums := map[string]map[int]float64{}
	for i, s := range t.spans {
		if sums[s.Name] == nil {
			sums[s.Name] = map[int]float64{}
		}
		sums[s.Name][s.Iter] += self[i]
	}
	out := make(map[string]float64, len(sums))
	for name, byIter := range sums {
		xs := make([]float64, 0, len(byIter))
		for _, v := range byIter { //dosn:orderinvariant a median does not depend on sample order
			xs = append(xs, v)
		}
		out[name] = median(xs)
	}
	return out
}

// printSplit lists a selfByName split, largest first, next to the wall time
// of the plain iteration the spans explain.
func printSplit(w io.Writer, split map[string]float64, iters int, iterWall float64) {
	names := make([]string, 0, len(split))
	for n := range split {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if split[names[i]] != split[names[j]] {
			return split[names[i]] > split[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "self time per span name, median of %d traced iterations (iteration wall %.4f s):\n", iters, iterWall)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %9.4f s %6.1f%%\n", n, split[n], 100*split[n]/iterWall)
	}
}

// each returns the duration of every span called name, in recording order.
func (t *tracer) each(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
