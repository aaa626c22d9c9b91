// Package atomicfile replaces files whole, so that a failed or interrupted
// write never leaves a truncated file, or part of a set of files, under the
// final names. Every command that writes a result or a snapshot goes through
// Replace.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Replace writes the files at paths through write, which receives one writer
// per path in the same order, and then moves them into place together.
//
// An existing target that is not a regular file (a directory, a device, a
// pipe) is refused before anything is created; a symlink to a regular file is
// replaced by the new file. Each target is written to path.tmp beside it, and
// every temp is fsynced and closed, both errors checked, before the first
// rename; the renames then run in path order. A failure before the renames
// removes every temp and leaves the targets as they were. A rename that fails
// for an I/O error can still leave the earlier targets replaced; the temps not
// yet renamed are removed. Errors wrap the underlying error with %w.
func Replace(paths []string, write func([]io.Writer) error) (err error) {
	for _, path := range paths {
		if fi, statErr := os.Stat(path); statErr == nil && !fi.Mode().IsRegular() {
			return fmt.Errorf("replace %s: not a regular file (mode %v)", path, fi.Mode())
		}
	}
	files := make([]*os.File, 0, len(paths))
	renamed := 0
	defer func() {
		if err == nil {
			return
		}
		for i, f := range files[renamed:] {
			f.Close() // no-op after a successful Close
			os.Remove(paths[renamed+i] + ".tmp")
		}
	}()
	ws := make([]io.Writer, len(paths))
	for i, path := range paths {
		f, createErr := os.Create(path + ".tmp")
		if createErr != nil {
			return fmt.Errorf("create %s.tmp: %w", path, createErr)
		}
		files = append(files, f)
		ws[i] = f
	}
	if err = write(ws); err != nil {
		return fmt.Errorf("write %s: %w", strings.Join(paths, " and "), err)
	}
	for i, f := range files {
		if err = f.Sync(); err != nil {
			return fmt.Errorf("sync %s.tmp: %w", paths[i], err)
		}
		if err = f.Close(); err != nil {
			return fmt.Errorf("close %s.tmp: %w", paths[i], err)
		}
	}
	for _, path := range paths {
		if err = os.Rename(path+".tmp", path); err != nil {
			return fmt.Errorf("rename %s: %w", path, err)
		}
		renamed++
	}
	return nil
}
