package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dosn"
	"dosn/internal/atomicfile"
	"dosn/internal/fault"
	"dosn/internal/harness"
	"dosn/internal/obs"
)

// runMatrix implements the `dosn-sim matrix` subcommand: one invocation runs
// the paper's whole experiment matrix (or any subset of it) deterministically
// and emits versioned JSON/CSV results.
func runMatrix(args []string) error {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	var (
		datasets   = fs.String("datasets", "facebook,twitter", "comma-separated datasets (facebook|twitter)")
		models     = fs.String("models", "sporadic,random,fixed2,fixed4,fixed6,fixed8", "comma-separated models (sporadic[:SECONDS]|random|fixedN)")
		modes      = fs.String("modes", "conrep,unconrep", "comma-separated modes (conrep|unconrep)")
		archs      = fs.String("arch", "", "comma-separated storage architectures (friend|random|social); default friend replication only")
		policies   = fs.String("policies", "", "comma-separated policies (MaxAv|MaxAv(activity)|MostActive|Random); default the paper's three")
		workers    = fs.Int("workers", 0, "concurrent cells (0 = NumCPU); never affects results")
		jsonOut    = fs.String("json", "", "write the run manifest as JSON to this file ('-' = stdout)")
		csvOut     = fs.String("csv", "", "write per-(cell,policy,degree) rows as CSV to this file ('-' = stdout)")
		quiet      = fs.Bool("q", false, "suppress per-cell progress on stderr")
		telemetry  = fs.String("telemetry", "", "write the execution telemetry report (per-cell phase breakdown, counters) as JSON to this file ('-' = stdout); never part of the manifest")
		events     = fs.String("events", "", "stream execution lifecycle events as JSONL to this file")
		progress   = fs.Bool("progress", false, "live single-line progress on stderr (cells done, current phase, ETA, heap); replaces per-cell lines")
		checkpoint = fs.String("checkpoint", "", "append each completed cell to a crash-safe JSONL journal at this path (fsync per cell)")
		resume     = fs.Bool("resume", false, "restore completed cells from the -checkpoint journal; the resumed manifest is byte-identical to an uninterrupted run")
	)
	sf := newSpecFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: dosn-sim matrix [flags]")
		fmt.Fprintln(fs.Output(), "runs the full dataset × model × mode experiment matrix in one invocation")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit clean
		}
		return err
	}

	// Failpoints arm only when the environment asks: production runs pay one
	// atomic load per site and take no fault branches.
	if on, err := fault.EnableFromEnv(os.Getenv(fault.EnvVar)); err != nil {
		return fmt.Errorf("%s: %w", fault.EnvVar, err)
	} else if on && !*quiet {
		fmt.Fprintf(os.Stderr, "matrix: fault injection armed from %s\n", fault.EnvVar)
	}

	spec, err := sf.spec(*datasets, *models, *modes, *policies)
	if err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume requires -checkpoint")
	}
	for _, name := range splitList(*archs) {
		arch, err := parseArchFlag(name)
		if err != nil {
			return err
		}
		spec.Architectures = append(spec.Architectures, arch)
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	cells := spec.Cells()
	if !*quiet {
		narch := len(spec.Architectures)
		if narch == 0 {
			narch = 1
		}
		fmt.Fprintf(os.Stderr, "matrix: %d cells (%d datasets × %d models × %d modes × %d architectures), repeats=%d, seed=%d\n",
			len(cells), len(spec.Datasets), len(spec.Models), len(spec.Modes), narch, spec.Repeats, spec.RootSeed)
	}
	// Profiles cover exactly the harness run (not flag parsing or output
	// serialization), so perf work on the matrix path starts from data
	// rather than a guess: dosn-sim matrix -scale large -cpuprofile cpu.out.
	// stopProf (which also closes a -debug-addr endpoint) runs right after
	// harness.Run returns, before the manifest is serialized; the deferred
	// call only covers early-error exits (it is idempotent).
	stopProf, err := sf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	// Telemetry is a side artifact: the collector observes execution (phase
	// timings, worker utilization, heap) and never touches the manifest,
	// which stays byte-identical with or without it.
	var collector *obs.Collector
	if *telemetry != "" || *events != "" || *progress {
		collector = obs.NewCollector()
	}
	var eventsFile *os.File
	if *events != "" {
		eventsFile, err = os.Create(*events)
		if err != nil {
			return fmt.Errorf("create %s: %w", *events, err)
		}
		defer eventsFile.Close()
		collector.AttachEvents(eventsFile)
	}

	start := time.Now()
	opts := harness.RunOptions{
		Workers: *workers, Telemetry: collector,
		CheckpointPath: *checkpoint, Resume: *resume,
	}
	switch {
	case *progress:
		// The live line owns stderr; per-cell lines would tear it.
		live := obs.NewProgress(os.Stderr, 0)
		collector.AttachProgress(live)
		defer live.Stop()
	case !*quiet:
		opts.Progress = func(done, total int, cell harness.CellSpec, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "  [%*d/%d] %-42s %8v\n", digits(total), done, total, cell.Key(), elapsed.Round(time.Millisecond))
		}
	}
	manifest, err := harness.Run(spec, opts)
	stopProf()
	if err != nil {
		return err
	}
	if collector != nil {
		rep := collector.Report("dosn-sim matrix -scale " + *sf.scale)
		if *telemetry != "" {
			if err := writeSink(*telemetry, rep.WriteJSON); err != nil {
				return err
			}
		}
	}
	if !*quiet && !*progress {
		fmt.Fprintf(os.Stderr, "matrix: done in %v (%d schedule computations reused)\n",
			time.Since(start).Round(time.Millisecond), manifest.ScheduleCacheHits)
	}

	if *jsonOut == "" && *csvOut == "" {
		*jsonOut = "-" // no sink requested: print JSON so the run is never silent
	}
	if *jsonOut != "" {
		if err := writeSink(*jsonOut, manifest.WriteJSON); err != nil {
			return err
		}
	}
	if *csvOut != "" {
		if err := writeSink(*csvOut, manifest.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// buildMatrixSpec assembles a harness.MatrixSpec from the flag values. The
// library's MatrixSpec fills zero values with defaults; at the CLI boundary
// explicit nonsense is rejected instead of silently rewritten.
func buildMatrixSpec(scale, datasets, models, modes, policies string, maxDegree, userDegree, repeats int, rootSeed int64) (harness.MatrixSpec, error) {
	fbUsers, twUsers, err := scaleUsers(scale)
	if err != nil {
		return harness.MatrixSpec{}, err
	}
	switch {
	case maxDegree <= 0:
		return harness.MatrixSpec{}, fmt.Errorf("-max-degree must be > 0, got %d", maxDegree)
	case userDegree <= 0:
		return harness.MatrixSpec{}, fmt.Errorf("-user-degree must be > 0, got %d", userDegree)
	case repeats <= 0:
		return harness.MatrixSpec{}, fmt.Errorf("-repeats must be > 0, got %d", repeats)
	case rootSeed == 0:
		return harness.MatrixSpec{}, errors.New("-seed must be nonzero (0 would select the library default of 42)")
	}
	spec := harness.MatrixSpec{
		Version:    harness.SpecVersion,
		MaxDegree:  maxDegree,
		UserDegree: userDegree,
		Repeats:    repeats,
		RootSeed:   rootSeed,
	}
	for _, name := range splitList(datasets) {
		// Seed stays 0: the harness resolves it to the canonical calibration
		// seed, so the CLI never duplicates that constant.
		switch name {
		case "facebook":
			spec.Datasets = append(spec.Datasets, harness.DatasetSpec{Name: "facebook", Users: fbUsers})
		case "twitter":
			spec.Datasets = append(spec.Datasets, harness.DatasetSpec{Name: "twitter", Users: twUsers})
		default:
			return spec, fmt.Errorf("unknown dataset %q (facebook|twitter)", name)
		}
	}
	for _, name := range splitList(models) {
		m, err := parseModelFlag(name)
		if err != nil {
			return spec, err
		}
		spec.Models = append(spec.Models, m)
	}
	for _, name := range splitList(modes) {
		switch strings.ToLower(name) {
		case "conrep":
			spec.Modes = append(spec.Modes, "ConRep")
		case "unconrep":
			spec.Modes = append(spec.Modes, "UnconRep")
		default:
			return spec, fmt.Errorf("unknown mode %q (conrep|unconrep)", name)
		}
	}
	spec.Policies = splitList(policies)
	return spec, nil
}

// parseArchFlag parses one -arch entry into the canonical architecture name.
func parseArchFlag(name string) (string, error) {
	switch strings.ToLower(name) {
	case "friend", "friendreplica":
		return dosn.ArchFriendReplica, nil
	case "random", "randomdht":
		return dosn.ArchRandomDHT, nil
	case "social", "socialdht":
		return dosn.ArchSocialDHT, nil
	default:
		return "", fmt.Errorf("unknown architecture %q (friend|random|social)", name)
	}
}

// parseModelFlag parses one -models entry: "sporadic", "sporadic:600"
// (session seconds), "random", or "fixedN" / "fixed:N" (hours).
func parseModelFlag(name string) (harness.ModelSpec, error) {
	lower := strings.ToLower(name)
	switch {
	case lower == "sporadic":
		return harness.Sporadic(), nil
	case strings.HasPrefix(lower, "sporadic:"):
		sec, err := strconv.Atoi(lower[len("sporadic:"):])
		if err != nil || sec <= 0 {
			return harness.ModelSpec{}, fmt.Errorf("bad sporadic session %q (want sporadic:SECONDS)", name)
		}
		return harness.ModelSpec{Kind: "sporadic", SessionSeconds: sec}, nil
	case lower == "random" || lower == "randomlength":
		return harness.RandomLength(), nil
	case strings.HasPrefix(lower, "fixed"):
		rest := strings.TrimPrefix(strings.TrimPrefix(lower, "fixed"), ":")
		hours, err := strconv.Atoi(rest)
		if err != nil || hours <= 0 {
			return harness.ModelSpec{}, fmt.Errorf("bad fixed-length model %q (want fixedN, e.g. fixed4)", name)
		}
		return harness.FixedLength(hours), nil
	default:
		return harness.ModelSpec{}, fmt.Errorf("unknown model %q (sporadic[:SECONDS]|random|fixedN)", name)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// writeSink writes via fn to path, with "-" meaning stdout. A regular file is
// replaced whole by atomicfile.Replace, so a failed or interrupted write
// leaves the previous file intact and no temp file behind.
func writeSink(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	if fi, statErr := os.Stat(path); statErr == nil && !fi.Mode().IsRegular() {
		// A device or pipe (/dev/stdout, /dev/null) is written through:
		// renaming over it would replace the node itself.
		f, openErr := os.OpenFile(path, os.O_WRONLY, 0)
		if openErr != nil {
			return fmt.Errorf("open %s: %w", path, openErr)
		}
		defer f.Close()
		return fn(f)
	}
	if err := atomicfile.Replace([]string{path}, func(ws []io.Writer) error { return fn(ws[0]) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}
