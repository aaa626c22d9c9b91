package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dosn/internal/fault"
	"dosn/internal/obs"
)

// crashSpec is a 4-cell matrix (1 dataset × 2 models × 2 modes) that crosses
// every failpoint seam: synthesis, schedule build (with a cache hit), sweep
// start, chunk sweep, reduce, checkpoint append, manifest write.
func crashSpec() MatrixSpec {
	return MatrixSpec{
		Datasets:   []DatasetSpec{{Name: "facebook", Users: 300, Seed: 1}},
		Models:     []ModelSpec{Sporadic(), FixedLength(2)},
		Modes:      []string{"ConRep", "UnconRep"},
		MaxDegree:  3,
		UserDegree: 0,
		Repeats:    2,
		RootSeed:   7,
	}
}

func withHarnessFaults(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Enable(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

func manifestBytes(t *testing.T, m *RunManifest) []byte {
	t.Helper()
	b, err := m.MarshalCanonical()
	if err != nil {
		t.Fatalf("MarshalCanonical: %v", err)
	}
	return b
}

// TestResumeByteIdenticalManifest is the kill-at-every-failpoint proof: for
// each injection seam, in both panic and error form, a checkpointed run is
// killed mid-matrix, then resumed with faults off — under a different worker
// count — and the resumed manifest must match an uninterrupted run byte for
// byte.
func TestResumeByteIdenticalManifest(t *testing.T) {
	spec := crashSpec()
	cleanRun, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	clean := manifestBytes(t, cleanRun)

	// Hit numbers are placed against the serial (one worker) claim order,
	// cells 0, 2, 1, 3: the first needers of the Sporadic and FixedLength(2h)
	// schedules, then their UnconRep reusers. crashSpec has one dataset, so
	// the claim order's round-robin over datasets has nothing to alternate
	// and leaves these hits where they were. schedule-build fires once per
	// repetition; each Sporadic repetition builds one table, and the
	// FixedLength(2h) entry, seed-independent over its row set, builds one
	// for both (a row set under 512 rows fills one chunk); every repetition
	// sweeps once (Random draws per repetition), so:
	// schedule-build hit 3, build-chunk hit 3 and reduce hit 3 are cell 2's
	// first repetition; center-chunk hit 1 is cell 2's first table (the
	// dataset's one column fill); sweep-shard hit 5 is the first repetition of
	// cell 1, a reuser; checkpoint-append hits 2 and 3 are the second and
	// third cells claimed. kills names the cell each scenario fails, so a
	// change of claim order that moves a hit shows here, not as a silent
	// change of what the scenario exercises.
	const (
		sporadicCon   = "facebook/Sporadic/ConRep"
		sporadicUncon = "facebook/Sporadic/UnconRep"
		fixedCon      = "facebook/FixedLength(2h)/ConRep"
	)
	scenarios := []struct{ fault, kills string }{
		{"trace.synthesize=panic(1)", sporadicCon},
		{"trace.synthesize=error(1)", sporadicCon},
		{"trace.synthesize-pass=panic(1)", sporadicCon},
		{"trace.synthesize-pass=error(1)", sporadicCon},
		{"harness.schedule-build=panic(3)", fixedCon},
		{"harness.schedule-build=error(3)", fixedCon},
		{"onlinetime.build-chunk=panic(1)", sporadicCon},
		{"onlinetime.build-chunk=error(3)", fixedCon},
		{"trace.center-chunk=panic(1)", fixedCon},
		{"trace.center-chunk=error(1)", fixedCon},
		{"core.sweep-shard=panic(2)", sporadicCon},
		{"core.sweep-shard=error(5)", sporadicUncon},
		{"core.sweep-chunk=panic(1)", sporadicCon},
		{"core.sweep-chunk=error(1)", sporadicCon},
		{"core.reduce=panic(1)", sporadicCon},
		{"core.reduce=error(3)", fixedCon},
		{"harness.checkpoint-append=panic(2)", fixedCon},
		{"harness.checkpoint-append=error(3)", sporadicUncon},
		{"harness.manifest-write=error(1)", ""},
	}
	fired := obs.C("fault.injections_fired")
	for _, sc := range scenarios {
		t.Run(sc.fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			withHarnessFaults(t, sc.fault)
			before := fired.Value()
			m, err := Run(spec, RunOptions{Workers: 1, CheckpointPath: path})
			if sc.kills == "" {
				// The run itself completes; the fault fires on the encode.
				if err != nil {
					t.Fatalf("run failed before the manifest seam: %v", err)
				}
				if _, err := m.MarshalCanonical(); err == nil {
					t.Fatal("manifest-write failpoint did not fire")
				}
			} else if err == nil {
				t.Fatal("armed run completed; failpoint did not fire")
			} else if !strings.HasPrefix(err.Error(), "cell "+sc.kills+":") {
				t.Fatalf("the fault killed the wrong cell, want %s: %v", sc.kills, err)
			}
			if n := fired.Value() - before; n != 1 {
				t.Fatalf("fault.injections_fired advanced by %d, want 1", n)
			}
			fault.Disable()

			resumed, err := Run(spec, RunOptions{
				Workers: 2, CheckpointPath: path, Resume: true,
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !bytes.Equal(manifestBytes(t, resumed), clean) {
				t.Error("resumed manifest differs from uninterrupted run")
			}
		})
	}
}

// TestResumeRecomputesNothingWhenJournalComplete resumes a fully-journaled
// run with every compute seam armed to fail on first hit: success proves the
// restored cells never re-enter synthesis, schedule build, or the sweep.
func TestResumeRecomputesNothingWhenJournalComplete(t *testing.T) {
	spec := crashSpec()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	full, err := Run(spec, RunOptions{Workers: 2, CheckpointPath: path})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	withHarnessFaults(t, "trace.synthesize=error(1);harness.schedule-build=error(1);core.sweep-shard=error(1);core.sweep-chunk=error(1)")
	resumed, err := Run(spec, RunOptions{Workers: 2, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatalf("complete-journal resume touched a compute seam: %v", err)
	}
	fault.Disable()
	if !bytes.Equal(manifestBytes(t, resumed), manifestBytes(t, full)) {
		t.Error("restored-only manifest differs")
	}
}

// TestRetryRecoversTransientFault pins the per-cell retry: a one-shot
// injected failure costs one attempt, and the retried run's manifest is
// byte-identical to a fault-free run.
func TestRetryRecoversTransientFault(t *testing.T) {
	spec := crashSpec()
	cleanRun, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, scenario := range []string{"core.sweep-chunk=error(1)", "core.sweep-chunk=panic(1)"} {
		withHarnessFaults(t, scenario)
		m, err := Run(spec, RunOptions{Workers: 2, MaxRetries: 1, RetryBackoff: time.Millisecond})
		if err != nil {
			t.Fatalf("%s: retry did not absorb a one-shot fault: %v", scenario, err)
		}
		fault.Disable()
		if !bytes.Equal(manifestBytes(t, m), manifestBytes(t, cleanRun)) {
			t.Errorf("%s: retried manifest differs from clean run", scenario)
		}
	}
}

// TestHelperGoroutinePanicBecomesCellError: synthesis fans passes out to
// goroutines of its own, where no recovery boundary stands between a panic
// and the end of the process. A panic injected into such a pass must be
// carried back to the cell's goroutine and end as that cell's error, with the
// injected site attached — and a retry, the fault spent, must complete with
// clean-run bytes.
func TestHelperGoroutinePanicBecomesCellError(t *testing.T) {
	spec := crashSpec()
	cleanRun, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	withHarnessFaults(t, "trace.synthesize-pass=panic(1)")
	_, err = Run(spec, RunOptions{Workers: 1})
	if err == nil {
		t.Fatal("armed run completed; the helper-pass failpoint did not fire")
	}
	if inj, ok := fault.AsInjected(err); !ok || inj.Site != "trace.synthesize-pass" {
		t.Fatalf("cell error lost the injected site: %v", err)
	}

	withHarnessFaults(t, "trace.synthesize-pass=panic(1)")
	m, err := Run(spec, RunOptions{Workers: 2, MaxRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("retry did not absorb a one-shot helper-pass panic: %v", err)
	}
	if !bytes.Equal(manifestBytes(t, m), manifestBytes(t, cleanRun)) {
		t.Error("retried manifest differs from clean run")
	}
}

// TestTableBuildWorkerPanicBecomesCellError: the schedule-table build fans
// its row fill out to workers of its own, inside the cell's schedule-cache
// compute. A panic on one of them must come back to the cell's goroutine and
// end as that cell's error with the injected site attached, every sibling
// cell must still run to completion, and a run without the fault must produce
// clean-run bytes — nothing of the failed build is left in the caches.
func TestTableBuildWorkerPanicBecomesCellError(t *testing.T) {
	spec := crashSpec()
	spec.Datasets[0].Users = 2000 // several 512-row chunks per table, so four core workers fan out
	if ds, err := buildDataset(spec.Datasets[0]); err != nil {
		t.Fatal(err)
	} else if ds.NumUsers() <= 1024 {
		t.Fatalf("%d users are too few to fan the table build out", ds.NumUsers())
	}
	cleanRun, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	withHarnessFaults(t, "onlinetime.build-chunk=panic(2)")
	finished := 0
	_, err = Run(spec, RunOptions{
		Workers: 1, CoreWorkers: 4,
		Progress: func(done, _ int, _ CellSpec, _ time.Duration) { finished = done },
	})
	if err == nil {
		t.Fatal("armed run completed; the table-build failpoint did not fire")
	}
	if inj, ok := fault.AsInjected(err); !ok || inj.Site != "onlinetime.build-chunk" {
		t.Fatalf("cell error lost the injected site: %v", err)
	}
	if first := spec.Cells()[0].Key(); !strings.Contains(err.Error(), first) {
		t.Errorf("error is not attributed to the cell that built the table (%s): %v", first, err)
	}
	if want := len(spec.Cells()); finished != want {
		t.Errorf("%d of %d cells finished; one failed build must not stop its siblings", finished, want)
	}
	fault.Disable()

	m, err := Run(spec, RunOptions{Workers: 2, CoreWorkers: 4})
	if err != nil {
		t.Fatalf("rerun with the fault off: %v", err)
	}
	if !bytes.Equal(manifestBytes(t, m), manifestBytes(t, cleanRun)) {
		t.Error("rerun manifest differs from clean run")
	}
}

// TestRetriesExhaustedSurfaceError: a fault that outlives the retry budget
// still fails the run, with the injected site attached.
func TestRetriesExhaustedSurfaceError(t *testing.T) {
	spec := crashSpec()
	withHarnessFaults(t, "core.sweep-chunk=error(p=1)")
	_, err := Run(spec, RunOptions{Workers: 2, MaxRetries: 2, RetryBackoff: time.Millisecond})
	if err == nil {
		t.Fatal("permanently-armed fault did not fail the run")
	}
	if inj, ok := fault.AsInjected(err); !ok || inj.Site != "core.sweep-chunk" {
		t.Fatalf("error lost the injected site: %v", err)
	}
}

// TestRetryIsNotAScheduleCacheHit: a cell that asks for its schedule entry
// again — the retry of a failed attempt, or of one its watchdog abandoned —
// reuses nothing another cell built, so neither the schedule_cache_hits
// counter nor the cell's telemetry may count it as a hit. Across distinct
// cells the counter still reads cells minus distinct entries.
func TestRetryIsNotAScheduleCacheHit(t *testing.T) {
	oneCell := crashSpec()
	oneCell.Models = oneCell.Models[:1]
	oneCell.Modes = oneCell.Modes[:1]
	oneCell.Repeats = 1
	scenarios := []struct {
		name, fault string
		opts        RunOptions
	}{
		{"failed attempt", "harness.schedule-build=error(1)", RunOptions{MaxRetries: 1, RetryBackoff: time.Millisecond}},
		// The stall outlives the watchdog after the entry is built. The one
		// repetition's reduce is the attempt's last failpoint site, so the
		// abandoned attempt has none left to hit once it wakes.
		{"abandoned attempt", "core.reduce=delay(1500ms,1)", RunOptions{MaxRetries: 1, RetryBackoff: time.Millisecond, CellTimeout: time.Second}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			withHarnessFaults(t, sc.fault)
			col := obs.NewCollector()
			opts := sc.opts
			opts.Workers, opts.Telemetry = 1, col
			before := obsSchedHits.Value()
			if _, err := Run(oneCell, opts); err != nil {
				t.Fatalf("retry did not absorb the one-shot fault: %v", err)
			}
			if n := obsSchedHits.Value() - before; n != 0 {
				t.Errorf("schedule_cache_hits advanced by %d over one cell, want 0", n)
			}
			if rep := col.Report("test"); rep.Cells[0].ScheduleCacheHit {
				t.Error("the cell's report marks a schedule-cache hit on its own entry")
			}
		})
	}

	spec := crashSpec() // 4 cells over 2 (dataset, model) entries
	before := obsSchedHits.Value()
	m, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := obsSchedHits.Value() - before; n != 2 || m.ScheduleCacheHits != 2 {
		t.Errorf("schedule_cache_hits advanced by %d, manifest reads %d; want 2 = 4 cells - 2 entries", n, m.ScheduleCacheHits)
	}
}

// TestProgressPanicFailsTheRun: a panicking Progress callback is outside
// every cell boundary, so it fails the run with an error — after the cells
// in flight finish, and without stranding the other workers on the
// callback's lock.
func TestProgressPanicFailsTheRun(t *testing.T) {
	_, err := Run(crashSpec(), RunOptions{
		Workers:  2,
		Progress: func(int, int, CellSpec, time.Duration) { panic("progress sink broke") },
	})
	if err == nil || !strings.Contains(err.Error(), "progress sink broke") {
		t.Fatalf("Run = %v, want the callback's panic as the run's error", err)
	}
}

// TestCellTimeoutWatchdog pins the per-attempt watchdog: a one-shot injected
// stall times the attempt out (TestRetryIsNotAScheduleCacheHit retries one
// to completion). The stall outlives the test binary: the abandoned attempts
// — the stalled cell's and its siblings', blocked behind its dataset build —
// must never wake to hit a failpoint a later test (or a later -count
// iteration) has armed.
func TestCellTimeoutWatchdog(t *testing.T) {
	spec := crashSpec()
	withHarnessFaults(t, "trace.synthesize=delay(1h,1)")
	_, err := Run(spec, RunOptions{
		Workers: 1, CellTimeout: 100 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("stalled cell did not time out: %v", err)
	}
}

// TestCheckpointRoundTripTruncationTolerance drives the journal's torn-write
// contract with randomized truncation points: cutting any suffix of the file
// must restore exactly the entries whose full line (newline included)
// survived the cut — never an error, never a partial entry.
func TestCheckpointRoundTripTruncationTolerance(t *testing.T) {
	spec := crashSpec().fill()
	cells := spec.Cells()
	dir := t.TempDir()
	path := filepath.Join(dir, "full.ckpt")
	cp, restored, err := openCheckpoint(path, spec, cells, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("fresh journal restored %d cells", len(restored))
	}
	want := make(map[int]CellResult, len(cells))
	for i, c := range cells {
		res := CellResult{Dataset: c.Dataset.Name, Model: c.Model.Name(), Seed: int64(1000 + i),
			Metrics: map[string][][]float64{"availability": {{float64(i)}}}}
		if err := cp.append(i, c.canonicalKey(), res); err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	cp.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines, valid := journalLines(data)
	if int(valid) != len(data) || len(lines) != len(cells)+1 {
		t.Fatalf("journal shape: %d lines, %d/%d valid bytes", len(lines), valid, len(data))
	}
	headerEnd := len(lines[0]) + 1

	tries := 0
	prop := func(rawCut uint32) bool {
		tries++
		cut := headerEnd + int(rawCut%uint32(len(data)-headerEnd+1)) // reduce before converting: int may have 32 bits
		tpath := filepath.Join(dir, fmt.Sprintf("cut-%d.ckpt", tries))
		if err := os.WriteFile(tpath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cp, restored, err := openCheckpoint(tpath, spec, cells, true)
		if err != nil {
			t.Logf("cut %d: %v", cut, err)
			return false
		}
		cp.Close()
		// Expect exactly the entries whose complete line fits in the cut.
		expect := 0
		off := headerEnd
		for _, l := range lines[1:] {
			off += len(l) + 1
			if off <= cut {
				expect++
			}
		}
		if len(restored) != expect {
			t.Logf("cut %d restored %d entries, want %d", cut, len(restored), expect)
			return false
		}
		for i, r := range restored {
			if r.Seed != want[i].Seed {
				t.Logf("cut %d: entry %d corrupted", cut, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAppendAfterTornTailStaysParseable: resuming over a torn tail
// must truncate it before appending, or the next entry fuses with the
// partial line and corrupts the journal's interior for the run after.
func TestCheckpointAppendAfterTornTailStaysParseable(t *testing.T) {
	spec := crashSpec().fill()
	cells := spec.Cells()
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	cp, _, err := openCheckpoint(path, spec, cells, false)
	if err != nil {
		t.Fatal(err)
	}
	res := CellResult{Dataset: "facebook", Metrics: map[string][][]float64{}}
	if err := cp.append(0, cells[0].canonicalKey(), res); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	data, _ := os.ReadFile(path)
	// Tear the last entry mid-line.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, restored, err := openCheckpoint(path, spec, cells, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("torn entry restored: %v", restored)
	}
	if err := cp.append(1, cells[1].canonicalKey(), res); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	_, restored, err = openCheckpoint(path, spec, cells, true)
	if err != nil {
		t.Fatalf("journal corrupt after append-over-torn-tail: %v", err)
	}
	if len(restored) != 1 || restored[1].Dataset != "facebook" {
		t.Fatalf("restored %v, want entry 1 only", restored)
	}
}

// TestCheckpointRejectsInteriorCorruption: only the trailing line is
// forgiven; a damaged interior line is an error, not a silent skip.
func TestCheckpointRejectsInteriorCorruption(t *testing.T) {
	spec := crashSpec().fill()
	cells := spec.Cells()
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	cp, _, err := openCheckpoint(path, spec, cells, false)
	if err != nil {
		t.Fatal(err)
	}
	res := CellResult{Metrics: map[string][][]float64{}}
	for i := 0; i < 2; i++ {
		if err := cp.append(i, cells[i].canonicalKey(), res); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()
	data, _ := os.ReadFile(path)
	lines, _ := journalLines(data)
	// Smash the first entry's opening brace (an interior line): the line no
	// longer parses, and it is not the trailing one, so no forgiveness.
	data[len(lines[0])+1] = '#'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openCheckpoint(path, spec, cells, true); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

// TestCheckpointRejectsSpecMismatch: a journal written by one spec must not
// resume another, and the error must say why.
func TestCheckpointRejectsSpecMismatch(t *testing.T) {
	specA := crashSpec()
	specB := crashSpec()
	specB.RootSeed = 99
	path := filepath.Join(t.TempDir(), "mismatch.ckpt")
	cp, _, err := openCheckpoint(path, specA.fill(), specA.fill().Cells(), false)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	_, err = Run(specB, RunOptions{Workers: 1, CheckpointPath: path, Resume: true})
	if err == nil {
		t.Fatal("foreign journal accepted for resume")
	}
	if !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("mismatch error not self-explanatory: %v", err)
	}
}

// TestResumeWithMissingJournalStartsFresh: -resume is safe to pass
// unconditionally; with nothing on disk the run simply starts over and
// journals as it goes.
func TestResumeWithMissingJournalStartsFresh(t *testing.T) {
	spec := crashSpec()
	path := filepath.Join(t.TempDir(), "fresh.ckpt")
	m, err := Run(spec, RunOptions{Workers: 2, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatalf("resume-from-nothing: %v", err)
	}
	clean, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifestBytes(t, m), manifestBytes(t, clean)) {
		t.Error("fresh-start resume manifest differs")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal not written on fresh start: %v", err)
	}
}
