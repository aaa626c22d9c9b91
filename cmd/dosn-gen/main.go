// Command dosn-gen synthesizes calibrated Facebook-like or Twitter-like
// datasets and writes them as CSV files that dosn-sim and the library can
// load back, replacing the non-redistributable traces the paper used.
//
// Usage:
//
//	dosn-gen -dataset facebook -users 2000 -out data/fb
//	dosn-gen -dataset twitter -users paper -out data/tw
//
// writes data/fb-graph.csv and data/fb-activities.csv (etc.) and prints the
// summary statistics to compare against the paper's reported numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"dosn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dosn-gen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset = flag.String("dataset", "facebook", "facebook | twitter")
		users   = flag.String("users", "2000", "user count, or 'paper' for the paper-scale size")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output path prefix (required)")
		filter  = flag.Bool("filter", true, "apply the paper's >=10-activities filter")
	)
	flag.Parse()
	if *out == "" {
		return fmt.Errorf("-out prefix is required")
	}

	n, err := parseUsers(*users, *dataset)
	if err != nil {
		return err
	}

	minActivity := -1 // no filter
	if *filter {
		minActivity = dosn.PaperMinActivity
	}
	ds, err := dosn.SynthesizeCalibrated(*dataset, n, *seed, minActivity)
	if err != nil {
		return err
	}

	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("create %s: %w", dir, err)
		}
	}
	graphPath := *out + "-graph.csv"
	actPath := *out + "-activities.csv"
	err = writePair(graphPath, actPath, func(graphW, actW io.Writer) error {
		return dosn.WriteDataset(ds, graphW, actW)
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", graphPath, actPath)
	fmt.Printf("stats: %s\n", ds.Stats())
	return nil
}

// writePair writes the two files of a dataset so that a failed or interrupted
// run never leaves a truncated file or half a pair under the final names: each
// goes to path.tmp beside its target, is fsynced and closed with both errors
// checked, and only when both are complete are they renamed into place. On
// any error the temp files are removed and whatever the final names held
// before is untouched.
func writePair(graphPath, actPath string, write func(graphW, actW io.Writer) error) (err error) {
	paths := [2]string{graphPath, actPath}
	var files [2]*os.File
	defer func() {
		if err == nil {
			return
		}
		for i, f := range files {
			if f != nil {
				f.Close() // no-op after a successful Close
				os.Remove(paths[i] + ".tmp")
			}
		}
	}()
	for i, path := range paths {
		if files[i], err = os.Create(path + ".tmp"); err != nil {
			return fmt.Errorf("create %s.tmp: %w", path, err)
		}
	}
	if err = write(files[0], files[1]); err != nil {
		return fmt.Errorf("write %s and %s: %w", graphPath, actPath, err)
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
	}
	return nil
}

func parseUsers(s, dataset string) (int, error) {
	if s == "paper" {
		if dataset == "twitter" {
			return dosn.PaperTwitterUsers, nil
		}
		return dosn.PaperFacebookUsers, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad -users %q", s)
	}
	return n, nil
}
