package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dosn/internal/core"
	"dosn/internal/harness"
	"dosn/internal/interval"
	"dosn/internal/metrics"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// matrixWorkload runs a whole experiment matrix through harness.Run with
// default options, as `dosn-sim matrix` does. paper_matrix and large_cell
// differ only in the spec.
type matrixWorkload struct {
	spec   harness.MatrixSpec
	n      int
	tmpDir string
	// rowsByKind counts the table rows one replay builds per model kind.
	rowsByKind map[string]int
}

// datasetSpec names a calibrated dataset at its canonical synthesis seed.
// The benchmark's seed deliberately does not reach the datasets: like the
// paper's traces they stay fixed while the root seed redraws every schedule
// and every randomized placement. Synthesized sizes differ by several
// percent from one dataset seed to the next, which the ten-seed spread
// protocol would book as run-to-run noise on every metric (README.md).
func datasetSpec(name string, users int) harness.DatasetSpec {
	d := harness.DatasetSpec{Name: name, Users: users, Seed: trace.DefaultFacebookConfig(users).Seed}
	if name == "twitter" {
		d.Seed = trace.DefaultTwitterConfig(users).Seed
	}
	return d
}

// newPaperMatrix is the paper's 24-cell evaluation: many cells per dataset,
// so the sweep dominates and schedule caching, prefetch and the repetition
// pipeline all have something to act on.
func newPaperMatrix(seed int64, quick bool, tmpDir string) *matrixWorkload {
	fb, tw, n := trace.PaperFacebookUsers, trace.PaperTwitterUsers, 20
	if quick {
		fb, tw, n = 2000, 2000, 2
	}
	spec := harness.PaperMatrix(0)
	spec.Datasets = []harness.DatasetSpec{datasetSpec("facebook", fb), datasetSpec("twitter", tw)}
	spec.Repeats, spec.RootSeed = 3, seed
	return &matrixWorkload{spec: spec, n: n, tmpDir: tmpDir}
}

// newLargeCell is one 100k-user cell: one cell per dataset means no cache
// reuse and a sweep over a small share of the users, so synthesis dominates.
func newLargeCell(seed int64, quick bool, tmpDir string) *matrixWorkload {
	users, n := 100_000, 24
	if quick {
		users, n = 5000, 2
	}
	return &matrixWorkload{
		spec: harness.MatrixSpec{
			Version:    harness.SpecVersion,
			Datasets:   []harness.DatasetSpec{datasetSpec("facebook", users)},
			Models:     []harness.ModelSpec{harness.Sporadic()},
			Modes:      []string{replica.ConRep.String()},
			MaxDegree:  10,
			UserDegree: 10,
			Repeats:    1,
			RootSeed:   seed,
		},
		n:      n,
		tmpDir: tmpDir,
	}
}

func (w *matrixWorkload) iterations() int { return w.n }

// setup has nothing to generate: the spec is the input, and synthesizing the
// datasets from it is part of every iteration, as it is for the CLI.
func (w *matrixWorkload) setup() error { return w.spec.Validate() }

func (w *matrixWorkload) iterate(t *tracer) (iterResult, error) {
	_, r, err := w.run(t, harness.RunOptions{})
	return r, err
}

// run executes the matrix and checks it: one operation per cell, failed when
// the cell is missing or a metric is out of range.
func (w *matrixWorkload) run(t *tracer, opts harness.RunOptions) (*harness.RunManifest, iterResult, error) {
	var man *harness.RunManifest
	var err error
	t.do("harness.run", func() { man, err = harness.Run(w.spec, opts) })
	if err != nil {
		return nil, iterResult{}, err
	}
	b, err := man.MarshalCanonical()
	if err != nil {
		return nil, iterResult{}, err
	}
	r := iterResult{hash: sha(b), size: len(b), ops: len(w.spec.Cells())}
	r.failed = max(0, r.ops-len(man.Cells))
	for _, c := range man.Cells {
		if !cellInRange(c) {
			r.failed++
		}
	}
	return man, r, nil
}

// cellInRange checks the three availability metrics lie in [0, 1], the delay
// (a weighted diameter, so it can exceed a day) is a non-negative number of
// hours, and no more replicas were used than the sweep offered.
func cellInRange(c harness.CellResult) bool {
	if c.Users <= 0 {
		return false
	}
	for _, id := range harness.MetricIDs() {
		hi := 1.0
		switch id {
		case "delay_hours":
			hi = math.Inf(1)
		case "effective_replicas":
			hi = float64(len(c.Degrees))
		}
		for _, row := range c.Metrics[id] {
			for _, v := range row {
				if !(v >= 0 && v <= hi) {
					return false
				}
			}
		}
	}
	return true
}

// counterDeltas stores, under each counter's own name, how far the program's
// always-on counter advanced since the before snapshot.
func counterDeltas(m map[string]float64, before map[string]int64, names ...string) {
	after := obs.Default.Counters()
	for _, c := range names {
		m[c] = float64(after[c] - before[c])
	}
}

func (w *matrixWorkload) traced(t *tracer, m map[string]float64) (iterResult, error) {
	var man *harness.RunManifest
	var r iterResult
	var err error
	before := obs.Default.Counters()
	t.do(wholeSpan, func() { man, r, err = w.run(t, harness.RunOptions{}) })
	if err != nil {
		return r, err
	}
	counterDeltas(m, before, "trace.activities_generated", "onlinetime.rows_built", "core.sweep_users", "core.sweep_chunks")
	m["harness.schedule_cache_hits"] = float64(man.ScheduleCacheHits)
	m["harness.manifest_bytes"] = float64(r.size)

	t.do("harness.manifest_encode", func() { err = man.WriteJSON(io.Discard) })
	if err != nil {
		return r, err
	}
	if err := w.replay(t, m); err != nil {
		return r, err
	}

	// The same run again with the crash-safe journal on; the difference to
	// the plain run is what one fsync per cell costs on this disk.
	if err := os.MkdirAll(w.tmpDir, 0o755); err != nil {
		return r, err
	}
	journal := filepath.Join(w.tmpDir, "checkpoint.jsonl")
	defer os.Remove(journal)
	t.do("harness.run_checkpointed", func() {
		_, err = harness.Run(w.spec, harness.RunOptions{CheckpointPath: journal})
	})
	return r, err
}

// replay makes the layer calls a matrix run is composed of, one after the
// other from this file, so each layer's time is visible from outside: every
// dataset synthesized once, every (dataset, model, repetition) table built
// once, every cell swept over prebuilt tables. The schedule seeds differ from
// the harness's private derivation; the work is the same.
func (w *matrixWorkload) replay(t *tracer, m map[string]float64) error {
	workers := runtime.NumCPU()
	var usersKept, datasetBytes, tableBytes int
	w.rowsByKind = map[string]int{}
	for di, d := range w.spec.Datasets {
		var ds *trace.Dataset
		var err error
		t.do("trace.synthesize", func() { ds, err = trace.SynthesizeCalibrated(d.Name, d.Users, d.Seed, d.MinActivity) })
		if err != nil {
			return err
		}
		usersKept += ds.NumUsers()
		datasetBytes += ds.MemoryBytes()
		for mi, ms := range w.spec.Models {
			model, err := ms.Model()
			if err != nil {
				return err
			}
			tables := make([]*onlinetime.Table, w.spec.Repeats)
			for rep := range tables {
				seed := w.spec.RootSeed + int64(1000*di+100*mi+rep)
				t.do("onlinetime.build."+ms.Kind, func() { tables[rep] = onlinetime.ComputeTable(model, ds, seed, workers) })
				tableBytes += tables[rep].MemoryBytes()
				w.rowsByKind[ms.Kind] += ds.NumUsers()
			}
			for _, cell := range w.spec.Cells() {
				if cell.Dataset != d || cell.Model != ms {
					continue
				}
				t.do("core.sweep", func() {
					_, err = core.Run(core.Config{
						Dataset:    ds,
						Model:      model,
						Mode:       cell.Mode,
						MaxDegree:  w.spec.MaxDegree,
						UserDegree: w.spec.UserDegree,
						Repeats:    w.spec.Repeats,
						Seed:       w.spec.CellSeed(cell),
						Workers:    workers,
						Schedules:  tables,
					})
				})
				if err != nil {
					return err
				}
			}
		}
	}
	m["trace.users_kept"] = float64(usersKept)
	m["trace.dataset_mb"] = float64(datasetBytes) / 1e6
	m["onlinetime.table_mb"] = float64(tableBytes) / 1e6
	return nil
}

func (w *matrixWorkload) probes(t *tracer, split, m map[string]float64) error {
	synth, sweep := split["trace.synthesize"], split["core.sweep"]
	build := 0.0
	for _, kind := range []string{"sporadic", "fixed", "random"} {
		s := split["onlinetime.build."+kind]
		build += s
		if rows := w.rowsByKind[kind]; rows > 0 {
			m["onlinetime.ns_per_row."+kind] = s * 1e9 / float64(rows)
		}
	}
	run := split["harness.run"]
	m["trace.synthesize_s"] = synth
	m["trace.ns_per_activity"] = synth * 1e9 / m["trace.activities_generated"]
	m["onlinetime.build_s"] = build
	m["core.sweep_s"] = sweep
	m["core.us_per_sweep_user"] = sweep * 1e6 / m["core.sweep_users"]
	m["harness.run_s"] = run
	m["harness.self_s"] = max(0, run-synth-build-sweep)
	m["harness.manifest_encode_ms"] = 1e3 * split["harness.manifest_encode"]
	m["harness.checkpoint_overhead_ms"] = 1e3 * (split["harness.run_checkpointed"] - run)

	d := w.spec.Datasets[0]
	cfg := trace.DefaultFacebookConfig(d.Users)
	cfg.Seed = d.Seed
	ds, err := traceProbes(cfg, m)
	if err != nil {
		return err
	}
	simProbes(ds, onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, d.Seed, runtime.NumCPU()), m)
	return nil
}

// traceProbes times the two-step public synthesis path — Synthesize, then
// FilterMinActivity on its result — and the graph generator alone, on the
// degree sequence of the synthesized graph. It returns the filtered dataset.
func traceProbes(cfg trace.SynthConfig, m map[string]float64) (*trace.Dataset, error) {
	raw, err := trace.Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds := raw.FilterMinActivity(trace.PaperMinActivity)
	m["trace.filter_s"] = time.Since(t0).Seconds()

	degrees := make([]int, raw.NumUsers())
	for u := range degrees {
		degrees[u] = raw.Graph.Degree(socialgraph.UserID(u))
	}
	t0 = time.Now()
	g := socialgraph.GenerateConfigurationModel(degrees, rand.New(rand.NewSource(cfg.Seed)))
	m["socialgraph.generate_s"] = time.Since(t0).Seconds()
	if g.NumUsers() != raw.NumUsers() {
		return nil, fmt.Errorf("configuration model has %d users, want %d", g.NumUsers(), raw.NumUsers())
	}
	return ds, nil
}

// probeSink keeps the compiler from discarding probe results.
var probeSink int

// simProbes times the primitives under the sweep engine on the degree-10
// ConRep input BenchmarkSweepUserKernel uses: MaxAv selection, the fused
// interval operations, and the incremental delay calculator.
func simProbes(ds *trace.Dataset, table *onlinetime.Table, m map[string]float64) {
	users := ds.Graph.UsersWithDegree(10)
	if len(users) > 64 {
		users = users[:64]
	}
	bitmaps := table.Bitmaps()
	if len(users) == 0 || len(bitmaps) < 2 {
		return
	}
	const rounds = 40
	selections := make([][]socialgraph.UserID, len(users))
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, u := range users {
			selections[i] = replica.MaxAv{}.Select(replica.Input{
				Owner:      u,
				Candidates: ds.Graph.Neighbors(u),
				Bitmaps:    bitmaps,
				Mode:       replica.ConRep,
				Budget:     10,
			}, nil)
		}
	}
	m["replica.maxav_select_us"] = perOp(t0, rounds*len(users), time.Microsecond)

	var dc metrics.DelayCalc
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i, u := range users {
			dc.Init(u, selections[i], bitmaps)
			for k := 0; k <= len(selections[i]); k++ {
				probeSink += dc.Prefix(k).Nodes
			}
		}
	}
	m["metrics.delay_calc_us"] = perOp(t0, rounds*len(users), time.Microsecond)

	const ops = 2_000_000
	var acc interval.Bitmap
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if i%16 == 0 {
			acc.Clear()
		}
		probeSink += acc.OrWithCount(&bitmaps[i%len(bitmaps)])
	}
	m["interval.or_count_ns"] = perOp(t0, ops, time.Nanosecond)

	t0 = time.Now()
	for i := 0; i < ops; i++ {
		gap, _ := bitmaps[i%len(bitmaps)].MaxGapWith(&bitmaps[(i+1)%len(bitmaps)])
		probeSink += gap
	}
	m["interval.max_gap_ns"] = perOp(t0, ops, time.Nanosecond)
}

// perOp is the mean time per operation since t0, in the given unit.
func perOp(t0 time.Time, ops int, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(unit) / float64(ops)
}
