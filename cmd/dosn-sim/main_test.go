package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dosn"
	"dosn/internal/harness"
)

func TestScaleUsers(t *testing.T) {
	tests := []struct {
		scale   string
		fb, tw  int
		wantErr bool
	}{
		{scale: "small", fb: 2000, tw: 2000},
		{scale: "medium", fb: 5000, tw: 5000},
		{scale: "paper", fb: 13884, tw: 14933},
		{scale: "large", fb: 100000, tw: 100000},
		{scale: "huge", fb: 1000000, tw: 1000000},
		{scale: "gigantic", wantErr: true},
		{scale: "", wantErr: true},
	}
	for _, tt := range tests {
		fb, tw, err := scaleUsers(tt.scale)
		if (err != nil) != tt.wantErr {
			t.Errorf("scaleUsers(%q) err = %v", tt.scale, err)
			continue
		}
		if err == nil && (fb != tt.fb || tw != tt.tw) {
			t.Errorf("scaleUsers(%q) = %d,%d want %d,%d", tt.scale, fb, tw, tt.fb, tt.tw)
		}
	}
}

func TestParseModelFlag(t *testing.T) {
	tests := []struct {
		in      string
		want    harness.ModelSpec
		wantErr bool
	}{
		{in: "sporadic", want: harness.Sporadic()},
		{in: "Sporadic", want: harness.Sporadic()},
		{in: "sporadic:600", want: harness.ModelSpec{Kind: "sporadic", SessionSeconds: 600}},
		{in: "random", want: harness.RandomLength()},
		{in: "randomlength", want: harness.RandomLength()},
		{in: "fixed2", want: harness.FixedLength(2)},
		{in: "fixed:8", want: harness.FixedLength(8)},
		{in: "fixed", wantErr: true},
		{in: "fixed0", wantErr: true},
		{in: "sporadic:x", wantErr: true},
		{in: "diurnal", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseModelFlag(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseModelFlag(%q) err = %v", tt.in, err)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tt.want) {
			t.Errorf("parseModelFlag(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestBuildMatrixSpecDefaultsToThePaperMatrix(t *testing.T) {
	spec, err := buildMatrixSpec("small", "facebook,twitter",
		"sporadic,random,fixed2,fixed4,fixed6,fixed8", "conrep,unconrep", "",
		10, 10, 3, 42)
	if err != nil {
		t.Fatalf("buildMatrixSpec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("built spec invalid: %v", err)
	}
	if got := len(spec.Cells()); got != 24 {
		t.Errorf("default matrix has %d cells, want 24", got)
	}
	if spec.Datasets[0].Users != 2000 || spec.Datasets[1].Users != 2000 {
		t.Errorf("small scale users = %+v", spec.Datasets)
	}
	// The CLI leaves dataset seeds at 0; the harness must resolve them to the
	// same cell seeds as the canonical paper matrix at the same scale.
	paper := harness.PaperMatrix(2000)
	paper.Repeats, paper.RootSeed = spec.Repeats, spec.RootSeed
	paperSeeds := map[string]int64{}
	for _, c := range paper.Cells() {
		paperSeeds[c.Key()] = paper.CellSeed(c)
	}
	for _, c := range spec.Cells() {
		if got, want := spec.CellSeed(c), paperSeeds[c.Key()]; got != want {
			t.Errorf("cell %s seed %d diverges from PaperMatrix's %d", c.Key(), got, want)
		}
	}
}

func TestBuildMatrixSpecRejectsBadInput(t *testing.T) {
	cases := []struct{ scale, ds, models, modes string }{
		{"galactic", "facebook", "sporadic", "conrep"},
		{"small", "orkut", "sporadic", "conrep"},
		{"small", "facebook", "diurnal", "conrep"},
		{"small", "facebook", "sporadic", "semirep"},
	}
	for _, c := range cases {
		if _, err := buildMatrixSpec(c.scale, c.ds, c.models, c.modes, "", 10, 10, 1, 1); err == nil {
			t.Errorf("buildMatrixSpec(%+v) accepted bad input", c)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(" a, b ,,c "); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("splitList = %v", got)
	}
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v, want nil", got)
	}
}

func TestBuildMatrixSpecRejectsExplicitNonsense(t *testing.T) {
	cases := []struct {
		maxDegree, userDegree, repeats int
		seed                           int64
	}{
		{0, 10, 1, 1},
		{-3, 10, 1, 1},
		{10, -1, 1, 1},
		{10, 0, 1, 1},
		{10, 10, 0, 1},
		{10, 10, -2, 1},
		{10, 10, 1, 0},
	}
	for _, c := range cases {
		if _, err := buildMatrixSpec("small", "facebook", "sporadic", "conrep", "",
			c.maxDegree, c.userDegree, c.repeats, c.seed); err == nil {
			t.Errorf("buildMatrixSpec(maxDegree=%d userDegree=%d repeats=%d seed=%d) accepted",
				c.maxDegree, c.userDegree, c.repeats, c.seed)
		}
	}
}

// TestWriteSinkIsCrashSafe: a sink whose writer fails midway leaves the
// previous file byte-intact and no temp file behind; a successful write
// replaces the file whole.
func TestWriteSinkIsCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	write := func(body string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, body); return err }
	}
	if err := writeSink(path, write("previous run")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err := writeSink(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a manif"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeSink error = %v, want the writer's failure", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous run" {
		t.Errorf("after failed write file = %q, %v; want previous contents intact", got, err)
	}
	if err := writeSink(path, write("next run")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "next run" {
		t.Errorf("after successful write file = %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "manifest.json" {
		t.Errorf("directory holds %v, want only manifest.json (no temp left behind)", entries)
	}
}

// TestMatrixTelemetryReportsEffectiveWorkers: the report's worker count is
// the one the harness ran with — NumCPU capped by the cell count — not the
// raw -workers flag, so a default-flag run is self-describing and an
// over-asked one is not misreported.
func TestMatrixTelemetryReportsEffectiveWorkers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
		want  int
	}{
		{"default flags, two cells", []string{"-modes", "conrep,unconrep"}, min(runtime.NumCPU(), 2)},
		{"-workers above the cell count", []string{"-modes", "conrep", "-workers", "2"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			report := filepath.Join(dir, "telemetry.json")
			args := append([]string{
				"-datasets", "facebook", "-models", "sporadic", "-max-degree", "3", "-repeats", "1", "-q",
				"-json", filepath.Join(dir, "manifest.json"), "-telemetry", report,
			}, tc.extra...)
			if err := runMatrix(args); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(report)
			if err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Workers int `json:"workers"`
			}
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Workers != tc.want {
				t.Errorf("report workers = %d, want %d", rep.Workers, tc.want)
			}
		})
	}
}

// TestMatrixRejectsRetiredShardSizeFlag: -shard-size and -no-prefetch are
// gone, so a stale script fails loudly with the flag package's unknown-flag
// error (main turns any runMatrix error into a non-zero exit) instead of
// being ignored.
func TestMatrixRejectsRetiredShardSizeFlag(t *testing.T) {
	for _, args := range [][]string{{"-shard-size", "1"}, {"-no-prefetch"}} {
		err := runMatrix(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("runMatrix(%v) = %v, want the unknown-flag error", args, err)
		}
	}
}

// TestRunFiguresAll drives -fig all -ascii=false at small scale with one
// repetition: every figure and experiment prints its table once, in
// FigureIDs order, with finite values, and -out writes one .dat file per
// figure.
func TestRunFiguresAll(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	spec, err := buildMatrixSpec("small", "facebook,twitter", "", "", "", 10, 10, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := runFigures(&out, "all", spec, dir, false); err != nil {
		t.Fatalf("runFigures: %v", err)
	}
	want := dosn.FigureIDs()
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if id, _, ok := strings.Cut(line, " — "); ok {
			got = append(got, id)
		}
		if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
			t.Errorf("non-finite row %q", line)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("figure tables printed = %v\nwant %v", got, want)
	}
	for _, id := range []string{"ablation-objective-avail", "ablation-history", "experiment-protocol", "experiment-arch"} {
		if !slices.Contains(got, id) {
			t.Errorf("-fig all skipped experiment %s", id)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dats []string
	for _, e := range entries {
		dats = append(dats, e.Name())
	}
	wantDats := make([]string, len(want))
	for i, id := range want {
		wantDats[i] = id + ".dat"
	}
	slices.Sort(wantDats)
	if !reflect.DeepEqual(dats, wantDats) {
		t.Errorf("-out wrote %v\nwant %v", dats, wantDats)
	}
}

// TestRunFigRejectsRetiredExperimentFlag: -experiment is gone (the
// experiments are -fig IDs), so a stale script fails loudly with the flag
// package's unknown-flag error instead of being ignored.
func TestRunFigRejectsRetiredExperimentFlag(t *testing.T) {
	err := runFig([]string{"-experiment", "protocol"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -experiment") {
		t.Errorf("runFig(-experiment protocol) = %v, want the unknown-flag error", err)
	}
}

// TestRunFigRejectsExplicitNonsense: the library reads a zero seed, repeat
// count or user degree as "use the default", so -fig must refuse them
// rather than silently run seed 42, 5 repetitions or degree 10.
func TestRunFigRejectsExplicitNonsense(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "0"},
		{"-repeats", "0"},
		{"-repeats", "-1"},
		{"-user-degree", "0"},
		{"-user-degree", "-1"},
		{"-max-degree", "0"},
	} {
		err := runFig(append([]string{"-fig", "list"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("runFig(%v) = %v, want an error naming %s", args, err, args[0])
		}
	}
	var out bytes.Buffer
	if err := runFig([]string{"-fig", "list", "-seed", "7", "-repeats", "1"}, &out); err != nil {
		t.Fatalf("runFig(-fig list): %v", err)
	}
	if !strings.Contains(out.String(), "experiment-arch") {
		t.Errorf("-fig list does not list the experiments:\n%s", out.String())
	}
}
