package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestParseUsers(t *testing.T) {
	tests := []struct {
		in      string
		dataset string
		want    int
		wantErr bool
	}{
		{in: "2000", dataset: "facebook", want: 2000},
		{in: "paper", dataset: "facebook", want: 13884},
		{in: "paper", dataset: "twitter", want: 14933},
		{in: "0", dataset: "facebook", wantErr: true},
		{in: "-5", dataset: "facebook", wantErr: true},
		{in: "abc", dataset: "facebook", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseUsers(tt.in, tt.dataset)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseUsers(%q,%q) err = %v", tt.in, tt.dataset, err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("parseUsers(%q,%q) = %d, want %d", tt.in, tt.dataset, got, tt.want)
		}
	}
}

// TestWritePairIsCrashSafe: a writer that fails midway — on either file —
// leaves the previous pair byte-intact and no temp file behind, and the
// error reaches the caller (dosn-gen exits non-zero); a successful write
// replaces both files whole.
func TestWritePairIsCrashSafe(t *testing.T) {
	dir := t.TempDir()
	graph, act := filepath.Join(dir, "fb-graph.csv"), filepath.Join(dir, "fb-activities.csv")
	write := func(g, a string) func(io.Writer, io.Writer) error {
		return func(gw, aw io.Writer) error {
			if _, err := io.WriteString(gw, g); err != nil {
				return err
			}
			_, err := io.WriteString(aw, a)
			return err
		}
	}
	check := func(when, wantG, wantA string) {
		t.Helper()
		g, errG := os.ReadFile(graph)
		a, errA := os.ReadFile(act)
		if errG != nil || errA != nil || string(g) != wantG || string(a) != wantA {
			t.Errorf("%s: files = %q (%v), %q (%v); want %q, %q", when, g, errG, a, errA, wantG, wantA)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Errorf("%s: directory holds %v, want only the pair (no temp left behind)", when, entries)
		}
	}
	if err := writePair(graph, act, write("graph v1", "activities v1")); err != nil {
		t.Fatal(err)
	}
	check("first write", "graph v1", "activities v1")

	diskFull := errors.New("no space left on device")
	failing := []func(gw, aw io.Writer) error{
		// The graph is complete, the activities stop halfway.
		func(gw, aw io.Writer) error {
			if err := write("graph v2", "activ")(gw, aw); err != nil {
				return err
			}
			return diskFull
		},
		// The graph itself stops halfway.
		func(gw, aw io.Writer) error {
			if _, err := io.WriteString(gw, "gra"); err != nil {
				return err
			}
			return diskFull
		},
	}
	for _, fn := range failing {
		if err := writePair(graph, act, fn); !errors.Is(err, diskFull) {
			t.Fatalf("writePair error = %v, want the writer's failure", err)
		}
		check("after failed write", "graph v1", "activities v1")
	}

	if err := writePair(graph, act, write("graph v3", "activities v3")); err != nil {
		t.Fatal(err)
	}
	check("next write", "graph v3", "activities v3")

	// A target that cannot be created fails before anything is written.
	missing := filepath.Join(dir, "no-such-dir", "x.csv")
	if err := writePair(graph, missing, write("graph v4", "activities v4")); err == nil {
		t.Error("writePair into a missing directory succeeded")
	}
	check("after failed create", "graph v3", "activities v3")
}
