package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A directory layout maps each entry name to its contents: a regular file's
// bytes, dirEntry for a directory, or linkPrefix plus the target's name for a
// symlink.
const (
	dirEntry   = "<dir>"
	linkPrefix = "<link>"
)

// errAny marks a case that must fail without naming the error.
var errAny = errors.New("any error")

func makeLayout(t *testing.T, dir string, layout map[string]string) {
	t.Helper()
	for name, body := range layout {
		path := filepath.Join(dir, name)
		var err error
		switch {
		case body == dirEntry:
			err = os.Mkdir(path, 0o755)
		case strings.HasPrefix(body, linkPrefix):
			err = os.Symlink(strings.TrimPrefix(body, linkPrefix), path)
		default:
			err = os.WriteFile(path, []byte(body), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func readLayout(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	layout := make(map[string]string, len(entries))
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		switch e.Type() {
		case os.ModeDir:
			layout[e.Name()] = dirEntry
		case os.ModeSymlink:
			target, err := os.Readlink(path)
			if err != nil {
				t.Fatal(err)
			}
			layout[e.Name()] = linkPrefix + target
		default:
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			layout[e.Name()] = string(body)
		}
	}
	return layout
}

// write returns a writer function that writes bodies[i] to the i-th file.
func write(bodies ...string) func([]io.Writer) error {
	return func(ws []io.Writer) error {
		for i, body := range bodies {
			if _, err := io.WriteString(ws[i], body); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestReplaceIsCrashSafe: a successful Replace puts every file in place
// whole; a writer failing midway in any file, a target that cannot be
// created, or a target that is not a regular file returns an error, leaves
// every previous file byte-intact and leaves no temp file behind. The
// writer's own error is reachable through errors.Is.
func TestReplaceIsCrashSafe(t *testing.T) {
	diskFull := errors.New("no space left on device")
	const g, a = "fb-graph.csv", "fb-activities.csv"
	v1 := map[string]string{g: "graph v1", a: "activities v1"}
	cases := []struct {
		name    string
		before  map[string]string
		paths   []string
		write   func(dir string) func([]io.Writer) error
		wantErr error // nil: must succeed; errAny: any error
		after   map[string]string
	}{
		{
			name:  "first write",
			paths: []string{g, a},
			write: func(string) func([]io.Writer) error { return write("graph v1", "activities v1") },
			after: v1,
		},
		{
			name:   "writer fails in the second file",
			before: v1,
			paths:  []string{g, a},
			write: func(string) func([]io.Writer) error {
				return func(ws []io.Writer) error {
					if err := write("graph v2", "activ")(ws); err != nil {
						return err
					}
					return diskFull
				}
			},
			wantErr: diskFull,
			after:   v1,
		},
		{
			name:   "writer fails in the first file",
			before: v1,
			paths:  []string{g, a},
			write: func(string) func([]io.Writer) error {
				return func(ws []io.Writer) error {
					if err := write("gra")(ws); err != nil {
						return err
					}
					return diskFull
				}
			},
			wantErr: diskFull,
			after:   v1,
		},
		{
			name:   "later successful write",
			before: v1,
			paths:  []string{g, a},
			write:  func(string) func([]io.Writer) error { return write("graph v3", "activities v3") },
			after:  map[string]string{g: "graph v3", a: "activities v3"},
		},
		{
			name:    "second target in a missing directory",
			before:  v1,
			paths:   []string{g, filepath.Join("no-such-dir", "x.csv")},
			write:   func(string) func([]io.Writer) error { return write("graph v4", "activities v4") },
			wantErr: errAny,
			after:   v1,
		},
		{
			name:    "directory at the second name",
			before:  map[string]string{g: "graph v1", a: dirEntry},
			paths:   []string{g, a},
			write:   func(string) func([]io.Writer) error { return write("graph v5", "activities v5") },
			wantErr: errAny,
			after:   map[string]string{g: "graph v1", a: dirEntry},
		},
		{
			name:   "symlink to a regular file is replaced, its target kept",
			before: map[string]string{"real.json": "old", "link.json": linkPrefix + "real.json"},
			paths:  []string{"link.json"},
			write:  func(string) func([]io.Writer) error { return write("new") },
			after:  map[string]string{"real.json": "old", "link.json": "new"},
		},
		{
			// The one gap left: a rename that fails after an earlier one
			// succeeded. Here the second name becomes a directory while the
			// files are being written, after the up-front check.
			name:   "second name turns into a directory mid-write",
			before: v1,
			paths:  []string{g, a},
			write: func(dir string) func([]io.Writer) error {
				return func(ws []io.Writer) error {
					if err := os.Remove(filepath.Join(dir, a)); err != nil {
						return err
					}
					if err := os.Mkdir(filepath.Join(dir, a), 0o755); err != nil {
						return err
					}
					return write("graph v6", "activities v6")(ws)
				}
			},
			wantErr: errAny,
			after:   map[string]string{g: "graph v6", a: dirEntry},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			makeLayout(t, dir, tc.before)
			paths := make([]string, len(tc.paths))
			for i, p := range tc.paths {
				paths[i] = filepath.Join(dir, p)
			}
			err := Replace(paths, tc.write(dir))
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("Replace: %v", err)
			case tc.wantErr != nil && err == nil:
				t.Fatal("Replace succeeded, want an error")
			case tc.wantErr != nil && tc.wantErr != errAny && !errors.Is(err, tc.wantErr):
				t.Fatalf("Replace error = %v, want the writer's failure", err)
			}
			if got := readLayout(t, dir); !reflect.DeepEqual(got, tc.after) {
				t.Errorf("directory holds %q, want %q (previous files intact, no temp left behind)", got, tc.after)
			}
		})
	}
}
