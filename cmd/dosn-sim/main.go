// Command dosn-sim regenerates the figures of the paper's evaluation
// section from synthetic calibrated datasets, and runs the extension
// experiments (protocol validation, replica load balance).
//
// Usage:
//
//	dosn-sim -fig list                 # list every reproducible figure
//	dosn-sim -fig fig3a                # print one figure as a table + chart
//	dosn-sim -fig all -out results/    # regenerate everything into .dat files
//	dosn-sim -experiment protocol      # X1/X2: analytic vs measured delays
//	dosn-sim -experiment loadbalance   # X4: replica-host fairness
//	dosn-sim -experiment objective     # A1: MaxAv objective ablation
//	dosn-sim -experiment history       # A2: MostActive trained on history
//	dosn-sim -experiment churn         # A3: availability under churn
//	dosn-sim -experiment arch          # X6: friend-replica vs random/social DHT
//	dosn-sim -scale paper -fig fig3a   # full paper-scale datasets (slower)
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
	var (
		figID      = flag.String("fig", "", "figure to regenerate (fig2, fig3a, ..., fig11d), 'all', or 'list'")
		experiment = flag.String("experiment", "", "extension experiment: protocol | loadbalance | objective | history | churn | arch")
		scale      = flag.String("scale", "small", "dataset scale: small (2000 users) | medium (5000) | paper (13884/14933) | large (100000) | huge (1000000)")
		outDir     = flag.String("out", "", "directory for gnuplot .dat files (default: print to stdout)")
		ascii      = flag.Bool("ascii", true, "render ASCII charts to stdout")
		repeats    = flag.Int("repeats", 3, "randomized-run repetitions (paper uses 5)")
		maxDegree  = flag.Int("max-degree", 10, "replication degree sweep bound")
		userDegree = flag.Int("user-degree", 10, "user degree of the analysis population")
		seed       = flag.Int64("seed", 42, "random seed")
		debugAddr  = flag.String("debug-addr", "", "serve the debug HTTP endpoint (pprof, expvar with obs counters) on this address for the duration of the run")
	)
	var pf prof.Flags
	pf.Register(flag.CommandLine)
	flag.Parse()

	// Profiles and the debug endpoint cover the whole figure/experiment run.
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

	switch {
	case *experiment != "":
		return runExperiment(os.Stdout, *experiment, fbUsers, *seed)
	case *figID == "" || *figID == "list":
		return listFigures(opts)
	default:
		return runFigures(os.Stdout, *figID, fbUsers, twUsers, opts, *outDir, *ascii)
	}
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

func listFigures(opts dosn.Options) error {
	suite := &dosn.Suite{Opts: opts} // IDs need no datasets
	fmt.Println("reproducible figures:")
	for _, id := range suite.FigureIDs() {
		fmt.Println(" ", id)
	}
	fmt.Println("run with -fig <id> or -fig all")
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

// runExperiment runs the named extension experiment on a synthetic Facebook
// dataset of fbUsers users and writes its table to w.
func runExperiment(w io.Writer, name string, fbUsers int, seed int64) error {
	fb, err := dosn.Facebook(fbUsers, 1)
	if err != nil {
		return err
	}
	switch name {
	case "protocol":
		res, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset: fb, Seed: seed, MaxWalls: 25, Days: 7,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "X1/X2 — protocol-level validation (MaxAv, ConRep, budget 3, Sporadic)")
		fmt.Fprintf(w, "  walls simulated            %d\n", res.Walls)
		fmt.Fprintf(w, "  posts replayed             %d\n", res.Posts)
		fmt.Fprintf(w, "  delivered to full group    %.1f%%\n", res.DeliveredFraction*100)
		fmt.Fprintf(w, "  analytic worst-case delay  %.2f h (upper bound)\n", res.AnalyticWorstHours)
		fmt.Fprintf(w, "  measured max delay         %.2f h\n", res.MeasuredMaxHours)
		fmt.Fprintf(w, "  measured mean pair delay   %.2f h (actual)\n", res.MeasuredPairHours)
		fmt.Fprintf(w, "  measured mean pair delay   %.2f h (observed)\n", res.ObservedPairHours)
		fmt.Fprintf(w, "  immediate landings         %.1f%% (measured AoD-activity)\n", res.ImmediateFraction*100)
		fmt.Fprintf(w, "  analytic AoD-activity      %.1f%%\n", res.AnalyticAoDActivity*100)
		fmt.Fprintf(w, "  measured AoD-time          %.1f%% (analytic %.1f%%)\n", res.MeasuredAoDTime*100, res.AnalyticAoDTime*100)
		fmt.Fprintf(w, "  anti-entropy exchanges     %d (posts transferred: %d)\n", res.Exchanges, res.PostsTransferred)
		return nil
	case "loadbalance":
		rows, err := dosn.ReplicaLoadBalance(fb, dosn.NewSporadic(0), dosn.ConRep, 3, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "X4 — replica-host load balance (ConRep, budget 3, Sporadic)")
		fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", "policy", "mean", "max", "cv")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-12s %10.2f %10.0f %10.3f\n", r.Policy, r.MeanLoad, r.MaxLoad, r.CV)
		}
		return nil
	case "objective":
		res, err := dosn.ObjectiveAblation(fb, dosn.NewSporadic(0), dosn.Options{Repeats: 3, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "A1 — MaxAv objective ablation (ConRep, Sporadic)")
		fmt.Fprintf(w, "  %-18s %14s %14s\n", "policy", "avail@deg3", "AoD-act@deg3")
		for pi, p := range res.Policies {
			fmt.Fprintf(w, "  %-18s %14.3f %14.3f\n", p,
				res.Value(pi, 3, dosn.MetricAvailability),
				res.Value(pi, 3, dosn.MetricAoDActivity))
		}
		return nil
	case "history":
		res, err := dosn.HistorySplit(fb, dosn.NewSporadic(0), 3, 0.5, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "A2 — MostActive trained on history (budget 3, 50/50 split)")
		fmt.Fprintf(w, "  users evaluated          %d\n", res.Users)
		fmt.Fprintf(w, "  historical AoD-activity  %.3f\n", res.HistoricalAoDActivity)
		fmt.Fprintf(w, "  oracle AoD-activity      %.3f\n", res.OracleAoDActivity)
		fmt.Fprintf(w, "  random AoD-activity      %.3f\n", res.RandomAoDActivity)
		return nil
	case "churn":
		rows, err := dosn.Churn(fb, dosn.NewSporadic(0), 5, 3, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "A3 — availability under replica churn (budget 5, Sporadic)")
		fmt.Fprintf(w, "  %-12s", "policy")
		for j := 0; j <= 5; j++ {
			fmt.Fprintf(w, "  fail=%d", j)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-12s", r.Policy)
			for _, v := range r.Availability {
				fmt.Fprintf(w, "  %6.3f", v)
			}
			fmt.Fprintln(w)
		}
		return nil
	case "arch":
		rows, err := dosn.RunArchComparison(dosn.ArchConfig{
			Dataset: fb, MaxDegree: 5, Repeats: 3, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "X6 — storage-architecture comparison (ConRep, budget 5, Sporadic)")
		fmt.Fprintf(w, "  %-14s %-12s %10s %10s %10s %10s %10s %10s\n",
			"architecture", "policy", "avail@5", "aod-t@5", "delay_h@5", "hops", "load_cv", "load_gini")
		for _, r := range rows {
			last := len(r.Sweep.Degrees) - 1
			for pi, policy := range r.Sweep.Policies {
				fmt.Fprintf(w, "  %-14s %-12s %10.3f %10.3f %10.2f %10.2f %10.3f %10.3f\n",
					r.Architecture, policy,
					r.Sweep.Value(pi, last, dosn.MetricAvailability),
					r.Sweep.Value(pi, last, dosn.MetricAoDTime),
					r.Sweep.Value(pi, last, dosn.MetricDelayHours),
					r.Lookup.MeanHops, r.LoadCV, r.LoadGini)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (protocol|loadbalance|objective|history|churn|arch)", name)
	}
}
