package harness

import (
	"bytes"
	"io"
	"math"
	"testing"

	"dosn/internal/obs"
)

// TestRunByteIdenticalAcrossWorkerCounts pins the harness's core guarantee:
// the marshaled manifest depends only on (spec, root seed). Worker count,
// goroutine scheduling (two runs at the same count) and the inner core.Run
// pool size must never change a byte of the output.
func TestRunByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := testSpec()
	// Include the DHT architectures so ring construction and lookup-driven
	// placement are covered by the byte-identity guarantee too.
	spec.Models = spec.Models[:1]
	spec.Architectures = []string{"FriendReplica", "RandomDHT", "SocialDHT"}
	marshal := func(opts RunOptions) []byte {
		t.Helper()
		m, err := Run(spec, opts)
		if err != nil {
			t.Fatalf("Run(%+v): %v", opts, err)
		}
		data, err := m.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := marshal(RunOptions{Workers: 1, CoreWorkers: 1})
	variants := []RunOptions{
		{Workers: 1, CoreWorkers: 8},
		{Workers: 4, CoreWorkers: 2},
		{Workers: 8, CoreWorkers: 1},
		{Workers: 8, CoreWorkers: 1}, // same count twice: scheduling jitter
	}
	for _, opts := range variants {
		if got := marshal(opts); !bytes.Equal(ref, got) {
			t.Errorf("manifest bytes differ for %+v", opts)
		}
	}
}

// TestTelemetryDoesNotPerturbManifest pins the observability contract: a
// run with the full telemetry stack active — collector, JSONL event stream,
// live progress sink — produces a byte-identical manifest to a bare run, at
// every worker configuration. Telemetry is a side artifact; if an
// instrumented code path ever feeds a measurement back into a result, this
// is the test that catches it.
func TestTelemetryDoesNotPerturbManifest(t *testing.T) {
	spec := testSpec()
	spec.Models = spec.Models[:1]
	marshal := func(opts RunOptions) []byte {
		t.Helper()
		m, err := Run(spec, opts)
		if err != nil {
			t.Fatalf("Run(%+v): %v", opts, err)
		}
		data, err := m.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	instrumented := func(opts RunOptions) RunOptions {
		col := obs.NewCollector()
		col.AttachEvents(io.Discard)
		p := obs.NewProgress(io.Discard, 0)
		t.Cleanup(p.Stop)
		col.AttachProgress(p)
		opts.Telemetry = col
		return opts
	}
	configs := []RunOptions{
		{Workers: 1, CoreWorkers: 1},
		{Workers: 4, CoreWorkers: 2},
	}
	for _, opts := range configs {
		ref := marshal(opts)
		if got := marshal(instrumented(opts)); !bytes.Equal(ref, got) {
			t.Errorf("telemetry perturbed the manifest for %+v", opts)
		}
	}
}

// TestSynthesizeTimerCoversThePhase: the trace.synthesize timer spans dataset
// construction end to end — graph, rows, filter, sort and index build — so a
// cell's synthesize phase, which the harness measures from outside, leaves no
// remainder attributed to no span. The two must agree within 10 %; with the
// filter outside the timer they were 20–25 % apart at this size (the paper's,
// on the counting-scatter path). Counters beside the timer say what
// construction drew and what it kept.
func TestSynthesizeTimerCoversThePhase(t *testing.T) {
	spec := MatrixSpec{
		Datasets:  []DatasetSpec{{Name: "facebook", Users: 14000, Seed: 1}},
		Models:    []ModelSpec{Sporadic()},
		Modes:     []string{"ConRep"},
		MaxDegree: 1,
		Repeats:   1,
		RootSeed:  7,
	}
	col := obs.NewCollector()
	timerBefore := obs.Default.Timers()["trace.synthesize"].TotalMS
	before := obs.Default.Counters()
	if _, err := Run(spec, RunOptions{Workers: 1, NoPrefetch: true, Telemetry: col}); err != nil {
		t.Fatal(err)
	}
	rep := col.Report("test")
	timerMS := rep.Timers["trace.synthesize"].TotalMS - timerBefore
	var phaseMS float64
	for _, p := range rep.Cells[0].Phases {
		if p.Name == "synthesize" {
			phaseMS = p.MS
		}
	}
	if phaseMS <= 0 || timerMS <= 0 {
		t.Fatalf("synthesize phase %.2f ms, timer %.2f ms: nothing measured", phaseMS, timerMS)
	}
	if math.Abs(phaseMS-timerMS) > 0.1*phaseMS {
		t.Errorf("trace.synthesize timer %.2f ms vs synthesize phase %.2f ms: want them within 10 %%", timerMS, phaseMS)
	}

	delta := func(name string) int64 { return rep.Counters[name] - before[name] }
	drawn, kept, users := delta("trace.activities_generated"), delta("trace.activities_kept"), delta("trace.users_kept")
	ds, err := buildDataset(spec.Datasets[0])
	if err != nil {
		t.Fatal(err)
	}
	if users != int64(ds.NumUsers()) {
		t.Errorf("trace.users_kept advanced by %d, the cell's dataset has %d users", users, ds.NumUsers())
	}
	if kept <= 0 || kept >= drawn {
		t.Errorf("trace.activities_kept advanced by %d of %d drawn; the paper's filter drops some rows, never all", kept, drawn)
	}
}

// TestRunSubsetIsConsistentWithFullMatrix verifies that running a sub-matrix
// reproduces the exact cells of the full matrix: cell seeds hash coordinates,
// not indices, so adding rows to a spec never perturbs existing results.
func TestRunSubsetIsConsistentWithFullMatrix(t *testing.T) {
	full := testSpec()
	m1, err := Run(full, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("Run(full): %v", err)
	}
	sub := testSpec()
	sub.Datasets = sub.Datasets[:1]  // facebook only
	sub.Models = sub.Models[1:]      // FixedLength(2h) only
	sub.Modes = []string{"UnconRep"} // one mode
	m2, err := Run(sub, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Run(sub): %v", err)
	}
	want, ok := m1.Cell("facebook", "FixedLength(2h)", "UnconRep")
	if !ok {
		t.Fatal("cell missing from full manifest")
	}
	got, ok := m2.Cell("facebook", "FixedLength(2h)", "UnconRep")
	if !ok {
		t.Fatal("cell missing from sub manifest")
	}
	wantJSON, _ := marshalCell(want)
	gotJSON, _ := marshalCell(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("sub-matrix cell differs from full-matrix cell:\nfull: %s\nsub:  %s", wantJSON, gotJSON)
	}
}

func marshalCell(c CellResult) ([]byte, error) {
	m := RunManifest{Version: ManifestVersion, Cells: []CellResult{c}}
	return m.MarshalCanonical()
}

// TestRootSeedChangesResults guards against a degenerate seed derivation
// that would ignore the root seed.
func TestRootSeedChangesResults(t *testing.T) {
	spec := testSpec()
	spec.Datasets = spec.Datasets[:1]
	spec.Models = spec.Models[:1]
	a, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec.RootSeed = 1234
	b, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.MarshalCanonical()
	bj, _ := b.MarshalCanonical()
	if bytes.Equal(aj, bj) {
		t.Error("different root seeds produced identical manifests")
	}
}

// TestRunByteIdenticalWithPrefetch pins that the execution pipeline — the
// background cell prefetcher plus core's repetition pipelining, both on by
// default — is execution-only. The NoPrefetch reference runs fully serial
// (no warm-ahead, no overlapped table builds); every pipelined variant must
// reproduce its manifest byte for byte, including ScheduleCacheHits, which
// counts cell-to-cell reuse and must not see prefetcher warm-ups.
func TestRunByteIdenticalWithPrefetch(t *testing.T) {
	spec := testSpec() // cells share (dataset, model) pairs → nonzero ScheduleCacheHits
	marshal := func(opts RunOptions) []byte {
		t.Helper()
		m, err := Run(spec, opts)
		if err != nil {
			t.Fatalf("Run(%+v): %v", opts, err)
		}
		if m.ScheduleCacheHits == 0 {
			t.Fatalf("spec exercises no schedule reuse; the hit-invariance pin is vacuous")
		}
		data, err := m.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := marshal(RunOptions{Workers: 1, CoreWorkers: 1, NoPrefetch: true})
	variants := []RunOptions{
		{Workers: 1, CoreWorkers: 1},
		{Workers: 1, CoreWorkers: 4},
		{Workers: 4, CoreWorkers: 2},
		{Workers: 8, CoreWorkers: 1},
		{Workers: 8, CoreWorkers: 1}, // same knobs twice: scheduling jitter
	}
	for _, opts := range variants {
		if got := marshal(opts); !bytes.Equal(ref, got) {
			t.Errorf("manifest bytes differ for %+v", opts)
		}
	}
}

// TestCenterColumnBuiltOncePerDatasetInAMatrix: the activity-center column is
// a property of the dataset, so a matrix builds it once per dataset — not once
// per table — however many (model, mode) cells, cell workers and prefetcher
// warm-ups ask for it together, and never for a Sporadic-only run.
func TestCenterColumnBuiltOncePerDatasetInAMatrix(t *testing.T) {
	spec := MatrixSpec{
		Datasets: []DatasetSpec{
			{Name: "facebook", Users: 600, Seed: 1},
			{Name: "twitter", Users: 600, Seed: 2},
		},
		Models:    []ModelSpec{FixedLength(2), FixedLength(8), RandomLength()},
		Modes:     []string{"ConRep", "UnconRep"},
		MaxDegree: 2,
		Repeats:   2,
		RootSeed:  7,
	}
	built := obs.C("trace.center_columns_built")
	before := built.Value()
	if _, err := Run(spec, RunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if n := built.Value() - before; n != 2 {
		t.Errorf("%d center columns built over 2 datasets × 3 models × 2 modes × 2 repetitions, want 2", n)
	}

	spec.Models = []ModelSpec{Sporadic()}
	before = built.Value()
	if _, err := Run(spec, RunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if n := built.Value() - before; n != 0 {
		t.Errorf("a Sporadic-only matrix built %d center columns, want none", n)
	}
}
