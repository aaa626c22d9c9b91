// Command bench is the repository's benchmark: four closed-loop, one-client,
// fixed-work workloads over the simulator and the node runtime, measured end
// to end without tracing and layer by layer with it. See README.md.
//
//	bench                                   every workload, each in its own process
//	bench -trace 1                          the same, followed by the traced pass
//	bench -workload W -seed S -seconds T -trace 0|1   one workload, one JSON result line
//	bench -aa K                             A/A self-check: K runs per side, gaps against the bounds
//	bench -quick                            small inputs, two iterations (smoke test)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tracedIterations is the fixed length of a traced pass.
const tracedIterations = 4

// setupSamples is how many fresh processes measure set-up for one setup_s
// figure, this one included.
const setupSamples = 3

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	aa        int
	setupOnly bool
	outDir    string
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

func main() {
	start := time.Now()
	if err := run(start, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(start time.Time, args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, " | ")+" (default: all, one process each)")
	fs.Int64Var(&o.seed, "seed", 42, "seed of every generated input; 42 has pinned output hashes")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure whole iterations until this many seconds have passed (0: the workload's fixed iteration count)")
	trace := fs.Int("trace", 0, "1: traced pass, per-layer metrics and a span file per workload")
	fs.BoolVar(&o.quick, "quick", false, "small inputs and two iterations")
	fs.IntVar(&o.aa, "aa", 0, "A/A self-check with this many runs per side")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up the workload, print the set-up time in seconds, exit")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for span files and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	o.trace = *trace == 1
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; timings would measure oversubscription", p, n)
	}
	switch {
	case o.aa > 0:
		return runAA(o, stdout, stderr)
	case o.workload == "":
		return runSuite(o, stdout, stderr)
	default:
		return runOne(o, start, stdout, stderr)
	}
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "paper_matrix":
		return newPaperMatrix(o.seed, o.quick, o.outDir), nil
	case "large_cell":
		return newLargeCell(o.seed, o.quick, o.outDir), nil
	case "arch_compare":
		return newArchCompare(o.seed, o.quick), nil
	case "node_sync":
		return newNodeSync(o.seed, o.quick), nil
	}
	return nil, fmt.Errorf("unknown workload %q (%s)", o.workload, strings.Join(workloadNames, " | "))
}

// runOne measures one workload in this process and prints its metrics, the
// JSON result last.
func runOne(o options, start time.Time, stdout, stderr io.Writer) error {
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	c := &checker{want: pinnedHash(o)}
	if o.setupOnly {
		setup, _, err := setUp(w, c, start)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, setup)
		return err
	}

	var values map[string]float64
	defs := endToEnd
	if o.trace {
		defs = perLayer
		n := tracedIterations
		if o.quick {
			n = w.iterations()
		}
		values, err = measureLayers(w, o.workload, c, start, stopRule{n: n, seconds: o.seconds}, o.outDir, stderr)
	} else {
		var extra []float64
		if !o.quick {
			if extra, err = setupsInFreshProcesses(o, setupSamples-1); err != nil {
				return err
			}
			// The children ran first; this process's set-up starts now.
			start = time.Now()
		}
		values, err = measureEndToEnd(w, c, start, stopRule{n: w.iterations(), seconds: o.seconds}, extra, stderr)
	}
	if err != nil {
		return err
	}
	metrics, err := complete(values, defs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s seed %d: output sha256 %s\n", o.workload, o.seed, c.want)
	printMetrics(stdout, o.workload, metrics)
	line, err := json.Marshal(result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if c.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %s", o.workload, c.failed, c.attempted, strings.Join(c.problems, "; "))
	}
	return nil
}

func printMetrics(w io.Writer, workload string, metrics map[string]measurement) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-14s %-34s %16.6f %s\n", workload, n, metrics[n].Value, metrics[n].Unit)
	}
}

// childArgs is the command line that repeats this run's inputs in a child.
func childArgs(o options, workload string, extra ...string) []string {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.seconds > 0 {
		args = append(args, "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	}
	return append(args, extra...)
}

// runChild runs this binary again and returns its standard output. The child
// has ended when runChild returns.
func runChild(stderr io.Writer, args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", filepath.Base(exe), strings.Join(args, " "), err)
	}
	return out, nil
}

// setupsInFreshProcesses measures set-up n more times, each in a process of
// its own so that once-per-process costs are paid every time.
func setupsInFreshProcesses(o options, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		b, err := runChild(io.Discard, childArgs(o, o.workload, "-setup-only"))
		if err != nil {
			return nil, err
		}
		if out[i], err = strconv.ParseFloat(strings.TrimSpace(string(b)), 64); err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
	}
	return out, nil
}

// runWorkloadProcess measures one workload in a child process, so that peak
// RSS and heap state never carry over from one workload to the next.
func runWorkloadProcess(o options, workload string, traced bool, stderr io.Writer) (result, error) {
	var extra []string
	if traced {
		extra = []string{"-trace", "1"}
	}
	out, err := runChild(stderr, childArgs(o, workload, extra...))
	var r result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jsonErr := json.Unmarshal(lines[len(lines)-1], &r); jsonErr != nil && err == nil {
		err = fmt.Errorf("%s: last line is not a result: %w", workload, jsonErr)
	}
	return r, err
}

// commit is the source revision, set by run.sh at link time.
var commit = "unknown"

type envStamp struct {
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	CPUModel   string             `json:"cpu_model"`
	Commit     string             `json:"commit"`
	Load1      map[string]float64 `json:"load1_before"`
}

func newEnvStamp() envStamp {
	e := envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     commit,
		Load1:      map[string]float64{},
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// load1 is the 1-minute load average, or -1 where the kernel does not say.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	first, _, _ := strings.Cut(string(b), " ")
	v, err := strconv.ParseFloat(first, 64)
	if err != nil {
		return -1
	}
	return v
}

// runSuite runs the workloads one after the other, each in its own process,
// and prints every metric by name, then the same as JSON with the env stamp.
func runSuite(o options, stdout, stderr io.Writer) error {
	env := newEnvStamp()
	results := map[string]result{}
	var firstErr error
	for _, name := range workloadNames {
		env.Load1[name] = load1()
		fmt.Fprintf(stderr, "== %s (1-minute load %.2f)\n", name, env.Load1[name])
		r, err := runWorkloadProcess(o, name, false, stderr)
		if err == nil && o.trace {
			var tr result
			if tr, err = runWorkloadProcess(o, name, true, stderr); err == nil {
				for n, v := range tr.Metrics {
					r.Metrics[n] = v
				}
				r.Attempted += tr.Attempted
				r.Failed += tr.Failed
				r.Correct = r.Correct && tr.Correct
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if r.Metrics != nil {
			results[name] = r
			printMetrics(stdout, name, r.Metrics)
		}
	}
	doc, err := json.MarshalIndent(struct {
		Env       envStamp          `json:"env"`
		Seed      int64             `json:"seed"`
		Workloads map[string]result `json:"workloads"`
	}{env, o.seed, results}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", doc)
	return firstErr
}
