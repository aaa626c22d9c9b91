// Command dosn-sim regenerates the figures of the paper's evaluation
// section from synthetic calibrated datasets, and the extension experiments
// (ablations, protocol validation, replica load balance, storage
// architectures) as figures of the same kind.
//
// Usage:
//
//	dosn-sim -fig list                          # list every figure and experiment
//	dosn-sim -fig fig3a                         # print one figure as a table + chart
//	dosn-sim -fig all -out results/             # regenerate everything into .dat files
//	dosn-sim -fig experiment-protocol           # X1/X2: analytic vs measured delays
//	dosn-sim -fig experiment-loadbalance        # X4: replica-host fairness
//	dosn-sim -fig ablation-objective-aodact     # A1: MaxAv objective ablation (also -avail)
//	dosn-sim -fig ablation-history              # A2: MostActive trained on history
//	dosn-sim -fig ablation-churn                # A3: availability under churn
//	dosn-sim -fig experiment-arch               # X6: friend-replica vs random/social DHT
//	dosn-sim -scale paper -fig fig3a            # full paper-scale datasets (slower)
//
// The matrix subcommand runs the paper's whole experiment matrix — datasets ×
// online-time models × placement modes — in one deterministic invocation and
// emits machine-readable results:
//
//	dosn-sim matrix                                  # full matrix, JSON to stdout
//	dosn-sim matrix -json run.json -csv run.csv      # write both artifacts
//	dosn-sim matrix -datasets facebook -models sporadic,fixed8 -modes conrep
//	dosn-sim matrix -arch friend,random,social       # storage-architecture axis
//	dosn-sim matrix -seed 7 -workers 16              # same seed ⇒ same bytes, any -workers
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dosn"
	"dosn/internal/obs"
	"dosn/internal/obs/prof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dosn-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) > 1 && os.Args[1] == "matrix" {
		return runMatrix(os.Args[2:])
	}
	return runFig(os.Args[1:], os.Stdout)
}

// runFig implements the figure front door: -fig regenerates any figure of
// the paper or extension experiment, every one ("all"), or lists them.
func runFig(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dosn-sim", flag.ContinueOnError)
	var (
		figID      = fs.String("fig", "", "figure or experiment to regenerate (fig2, fig3a, ..., experiment-arch), 'all', or 'list'")
		scale      = fs.String("scale", "small", "dataset scale: small (2000 users) | medium (5000) | paper (13884/14933) | large (100000) | huge (1000000)")
		outDir     = fs.String("out", "", "directory for gnuplot .dat files (default: print to stdout)")
		ascii      = fs.Bool("ascii", true, "render ASCII charts to stdout")
		repeats    = fs.Int("repeats", 3, "randomized-run repetitions (paper uses 5)")
		maxDegree  = fs.Int("max-degree", 10, "replication degree sweep bound")
		userDegree = fs.Int("user-degree", 10, "user degree of the analysis population")
		seed       = fs.Int64("seed", 42, "random seed")
		debugAddr  = fs.String("debug-addr", "", "serve the debug HTTP endpoint (pprof, expvar with obs counters) on this address for the duration of the run")
	)
	var pf prof.Flags
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit clean
		}
		return err
	}
	// The library fills zero values with defaults; -user-degree has no
	// modal-degree reading here, so 0 is as much nonsense as a negative.
	if err := checkRunFlags(*maxDegree, *userDegree, *repeats, *seed, false); err != nil {
		return err
	}

	// Profiles and the debug endpoint cover the whole figure run.
	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/vars (pprof under /debug/pprof/)\n", dbg.Addr())
	}

	fbUsers, twUsers, err := scaleUsers(*scale)
	if err != nil {
		return err
	}
	opts := dosn.Options{
		MaxDegree:  *maxDegree,
		UserDegree: *userDegree,
		Repeats:    *repeats,
		Seed:       *seed,
	}
	if *figID == "" || *figID == "list" {
		return listFigures(w, opts)
	}
	return runFigures(w, *figID, fbUsers, twUsers, opts, *outDir, *ascii)
}

// checkRunFlags rejects explicit nonsense in the flags -fig and matrix share,
// which the library would otherwise silently rewrite to its defaults.
// modalOK admits -user-degree 0, which matrix reads as the modal degree.
func checkRunFlags(maxDegree, userDegree, repeats int, seed int64, modalOK bool) error {
	switch {
	case maxDegree <= 0:
		return fmt.Errorf("-max-degree must be > 0, got %d", maxDegree)
	case modalOK && userDegree < 0:
		return fmt.Errorf("-user-degree must be >= 0 (0 = modal degree), got %d", userDegree)
	case !modalOK && userDegree <= 0:
		return fmt.Errorf("-user-degree must be > 0, got %d", userDegree)
	case repeats <= 0:
		return fmt.Errorf("-repeats must be > 0, got %d", repeats)
	case seed == 0:
		return errors.New("-seed must be nonzero (0 would select the library default of 42)")
	}
	return nil
}

// LargeScaleUsers is the per-dataset user count of the "large" scale: an
// order of magnitude past the paper's filtered traces, the first stop on the
// ROADMAP's path toward million-user sweeps. The columnar dataset layer keeps
// it inside a workstation's memory (see README "Dataset layout & memory").
const LargeScaleUsers = 100_000

// HugeScaleUsers is the per-dataset user count of the "huge" scale: the
// million-user tier the ROADMAP's north star names. The streaming synthesis
// and the shard-by-shard schedule build keep its peak memory bounded by the
// columnar trace plus the schedule arena (README "Dataset layout & memory");
// the sweep touches only the degree-10 users and holds a few MB.
const HugeScaleUsers = 1_000_000

func scaleUsers(scale string) (fb, tw int, err error) {
	switch scale {
	case "small":
		return 2000, 2000, nil
	case "medium":
		return 5000, 5000, nil
	case "paper":
		return dosn.PaperFacebookUsers, dosn.PaperTwitterUsers, nil
	case "large":
		return LargeScaleUsers, LargeScaleUsers, nil
	case "huge":
		return HugeScaleUsers, HugeScaleUsers, nil
	default:
		return 0, 0, fmt.Errorf("unknown scale %q (small|medium|paper|large|huge)", scale)
	}
}

func buildSuite(fbUsers, twUsers int, opts dosn.Options) (*dosn.Suite, error) {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "synthesizing datasets (fb=%d, tw=%d users)...\n", fbUsers, twUsers)
	suite, err := dosn.NewSuite(fbUsers, twUsers, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "datasets ready in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "  facebook: %s\n", suite.Facebook.Stats())
	fmt.Fprintf(os.Stderr, "  twitter:  %s\n", suite.Twitter.Stats())
	return suite, nil
}

func listFigures(w io.Writer, opts dosn.Options) error {
	suite := &dosn.Suite{Opts: opts} // IDs need no datasets
	fmt.Fprintln(w, "reproducible figures and experiments:")
	for _, id := range suite.FigureIDs() {
		fmt.Fprintln(w, " ", id)
	}
	fmt.Fprintln(w, "run with -fig <id> or -fig all")
	return nil
}

// runFigures regenerates the figure figID ("all" for every one) and writes
// each figure's table, and its ASCII chart when ascii is set, to w; outDir,
// when set, also receives one .dat file per figure.
func runFigures(w io.Writer, figID string, fbUsers, twUsers int, opts dosn.Options, outDir string, ascii bool) error {
	suite, err := buildSuite(fbUsers, twUsers, opts)
	if err != nil {
		return err
	}
	ids := []string{figID}
	if figID == "all" {
		ids = suite.FigureIDs()
	}
	start := time.Now()
	figs, err := suite.Figures(ids)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d figures computed in %v\n", len(figs), time.Since(start).Round(time.Millisecond))
	for _, fig := range figs {
		if err := fig.PrintTable(w); err != nil {
			return err
		}
		if ascii {
			if err := fig.Render(w, 64, 14); err != nil {
				return err
			}
		}
		if outDir != "" {
			if err := writeDat(outDir, fig.ID, fig); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func writeDat(dir, id string, fig dosn.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", dir, err)
	}
	path := filepath.Join(dir, id+".dat")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := fig.WriteDat(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
