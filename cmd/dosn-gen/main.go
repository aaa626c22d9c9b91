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
	"dosn/internal/atomicfile"
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
	// Both files are renamed into place only once both are complete.
	err = atomicfile.Replace([]string{graphPath, actPath}, func(ws []io.Writer) error {
		return dosn.WriteDataset(ds, ws[0], ws[1])
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", graphPath, actPath)
	fmt.Printf("stats: %s\n", ds.Stats())
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
