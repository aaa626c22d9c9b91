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
//
// Both doors build their spec from the same flags (-scale, -max-degree,
// -user-degree, -repeats, -seed) and run it on the same cell runner: every
// sweep figure is a view of matrix cells, so a figure point is the number
// matrix reports for the same cell.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dosn"
	"dosn/internal/harness"
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
// the paper or extension experiment, every one ("all"), or lists them. Its
// spec flags are the matrix door's; every figure is a view of matrix cells.
func runFig(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dosn-sim", flag.ContinueOnError)
	var (
		figID  = fs.String("fig", "", "figure or experiment to regenerate (fig2, fig3a, ..., experiment-arch), 'all', or 'list'")
		outDir = fs.String("out", "", "directory for gnuplot .dat files (default: print to stdout)")
		ascii  = fs.Bool("ascii", true, "render ASCII charts to stdout")
	)
	sf := newSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit clean
		}
		return err
	}
	spec, err := sf.spec("facebook,twitter", "", "", "")
	if err != nil {
		return err
	}
	if spec.UserDegree == 0 { // Fig. 9 sweeps the user degrees 1..-user-degree
		return errors.New("-user-degree must be > 0 for figures, got 0")
	}
	if *figID == "" || *figID == "list" {
		fmt.Fprintf(w, "reproducible figures and experiments:\n  %s\nrun with -fig <id> or -fig all\n", strings.Join(dosn.FigureIDs(), "\n  "))
		return nil
	}
	stopProf, err := sf.start()
	if err != nil {
		return err
	}
	defer stopProf()
	return runFigures(w, *figID, spec, *outDir, *ascii)
}

// specFlags are the flags both doors build their spec from — scale, sweep
// bounds, repeats and root seed — and the profiling knobs they share.
type specFlags struct {
	scale                          *string
	maxDegree, userDegree, repeats *int
	seed                           *int64
	debugAddr                      *string
	prof                           prof.Flags
}

func newSpecFlags(fs *flag.FlagSet) *specFlags {
	f := &specFlags{
		scale:      fs.String("scale", "small", "dataset scale: small (2000 users) | medium (5000) | paper (13884/14933) | large (100000) | huge (1000000)"),
		maxDegree:  fs.Int("max-degree", 10, "replication degree sweep bound"),
		userDegree: fs.Int("user-degree", 10, "user degree of the analysis population (0 = modal; -fig needs > 0)"),
		repeats:    fs.Int("repeats", 3, "randomized-run repetitions (paper uses 5)"),
		seed:       fs.Int64("seed", 42, "root seed; cell seeds derive from it and the cell coordinates"),
		debugAddr:  fs.String("debug-addr", "", "serve the debug HTTP endpoint (pprof, expvar with obs counters) on this address for the duration of the run"),
	}
	f.prof.Register(fs)
	return f
}

// spec builds the spec the flags describe over the given axis lists.
func (f *specFlags) spec(datasets, models, modes, policies string) (harness.MatrixSpec, error) {
	return buildMatrixSpec(*f.scale, datasets, models, modes, policies, *f.maxDegree, *f.userDegree, *f.repeats, *f.seed)
}

// start starts the profiles and the debug endpoint the flags ask for. The
// returned stop ends both; it is idempotent, so a door may stop the
// profiles early and still defer it.
func (f *specFlags) start() (stop func(), err error) {
	stopProf, err := f.prof.Start()
	if err != nil {
		return nil, err
	}
	if *f.debugAddr == "" {
		return stopProf, nil
	}
	dbg, err := obs.ServeDebug(*f.debugAddr)
	if err != nil {
		stopProf()
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/vars (pprof under /debug/pprof/)\n", dbg.Addr())
	return func() { stopProf(); dbg.Close() }, nil
}

// LargeScaleUsers is the per-dataset user count of the "large" scale, an
// order of magnitude past the paper's filtered traces.
const LargeScaleUsers = 100_000

// HugeScaleUsers is the per-dataset user count of the "huge" scale (README
// "Million-user huge tier").
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

// runFigures regenerates the figure figID ("all" for every one) over the
// base spec and writes each figure's table, and its ASCII chart when ascii
// is set, to w; outDir, when set, also receives one .dat file per figure.
func runFigures(w io.Writer, figID string, spec harness.MatrixSpec, outDir string, ascii bool) error {
	ids := []string{figID}
	if figID == "all" {
		ids = dosn.FigureIDs()
	}
	start := time.Now()
	figs, err := dosn.Figures(spec, ids)
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
	return writeSink(filepath.Join(dir, id+".dat"), fig.WriteDat)
}
