package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dosn/internal/atomicfile"
	"dosn/internal/fault"
	"dosn/internal/obs"
	"dosn/internal/store"
)

func TestAuthorPostsParsing(t *testing.T) {
	st := store.New(1)
	if err := authorPosts(st, "1:hello;2:world of text", 5); err != nil {
		t.Fatalf("authorPosts: %v", err)
	}
	ps, err := st.Posts(1)
	if err != nil || len(ps) != 1 || ps[0].Body != "hello" {
		t.Errorf("wall 1 = %v (%v)", ps, err)
	}
	ps, _ = st.Posts(2)
	if len(ps) != 1 || ps[0].Body != "world of text" {
		t.Errorf("wall 2 = %v", ps)
	}
	if err := authorPosts(st, "", 5); err != nil {
		t.Errorf("empty spec should be a no-op: %v", err)
	}
	for _, bad := range []string{"nocolon", "x:y", "1"} {
		if err := authorPosts(st, bad, 5); err == nil && bad != "1:y" {
			if bad == "nocolon" || bad == "1" {
				t.Errorf("authorPosts(%q) should fail", bad)
			}
		}
	}
}

func TestSetFieldsParsing(t *testing.T) {
	st := store.New(1)
	if err := setFields(st, "1:bio=hi there;1:city=Lausanne", 9, 1); err != nil {
		t.Fatalf("setFields: %v", err)
	}
	fs, err := st.Fields(1)
	if err != nil || fs["bio"].Value != "hi there" || fs["city"].Value != "Lausanne" {
		t.Errorf("fields = %v (%v)", fs, err)
	}
	for _, bad := range []string{"nofield", "1:noequals", "x:a=b"} {
		if err := setFields(st, bad, 9, 1); err == nil {
			t.Errorf("setFields(%q) should fail", bad)
		}
	}
}

// saveState is the node's exit save of its -state snapshot, as run makes it.
func saveState(path string, st *store.Store) error {
	return atomicfile.Replace([]string{path}, func(ws []io.Writer) error { return st.Save(ws[0]) })
}

// TestSaveStateLeavesNoTempFileOnFailure: -state naming an existing
// directory is refused. The error must surface, and no temp file may
// outlive it; a save to a plain path still round-trips.
func TestSaveStateLeavesNoTempFileOnFailure(t *testing.T) {
	st := store.New(1)
	if err := authorPosts(st, "1:hello", 5); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := saveState(dir, st); err == nil {
		t.Fatal("saving over a directory succeeded")
	}
	if _, err := os.Stat(dir + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed save left its temp file behind (stat: %v)", err)
	}

	path := filepath.Join(t.TempDir(), "state.json")
	if err := saveState(path, st); err != nil {
		t.Fatal(err)
	}
	back, err := openState(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps, err := back.Posts(1); err != nil || len(ps) != 1 || ps[0].Body != "hello" {
		t.Errorf("restored wall 1 = %v (%v)", ps, err)
	}
}

// A save that fails at its start (failpoint store.save) reports the error
// and leaves the previous state file byte for byte, with no temp file.
func TestSaveStateFaultKeepsPreviousState(t *testing.T) {
	st := store.New(1)
	if err := authorPosts(st, "1:first", 5); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := saveState(path, st); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := authorPosts(st, "1:second", 6); err != nil {
		t.Fatal(err)
	}
	fired := obs.C("fault.fired.store.save")
	n := fired.Value()
	if err := fault.Enable("store.save=error(1)"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	if err := saveState(path, st); err == nil {
		t.Fatal("save succeeded through an injected fault")
	} else if _, ok := fault.AsInjected(err); !ok {
		t.Fatalf("save failed with %v, want the injected fault", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the state file changed (read: %v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed save left its temp file behind (stat: %v)", err)
	}
	if got := fired.Value() - n; got != 1 {
		t.Errorf("fault.fired.store.save advanced by %d, want 1", got)
	}
}
