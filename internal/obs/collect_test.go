package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestNilSafety pins the zero-cost-when-off contract: every Collector,
// CellObs, and Progress method must be callable on a nil receiver.
func TestNilSafety(t *testing.T) {
	var c *Collector
	c.AttachEvents(io.Discard)
	c.AttachProgress(nil)
	c.SetTotalCells(5)
	c.SetWorkers(2)
	if rep := c.Report("x"); rep != nil {
		t.Fatal("nil collector must produce a nil report")
	}
	o := c.StartCell("k", 0)
	if o != nil {
		t.Fatal("nil collector must hand out nil cell obs")
	}
	o.Phase("p")()
	o.CachePhase("p")(false)
	o.AddPhaseNS("p", 100)
	o.SetSweepWorkers(4)
	o.MarkScheduleCacheHit()
	o.AddChunks(3)
	o.WorkerBusy(42)
	o.Done()

	var p *Progress
	p.SetTotal(1)
	p.SetPhase("x")
	p.CellDone()
	p.Stop()
}

// TestCollectorReportAndEvents drives a two-cell run through the collector
// and checks the report structure and the JSONL event stream.
func TestCollectorReportAndEvents(t *testing.T) {
	var events bytes.Buffer
	c := NewCollector()
	c.AttachEvents(&events)
	c.SetTotalCells(2)
	c.SetWorkers(2)

	a := c.StartCell("cell-a", 0)
	done := a.Phase("synthesize")
	done()
	done = a.Phase("sweep")
	a.SetSweepWorkers(2)
	a.WorkerBusy(2e6)
	a.WorkerBusy(3e6)
	a.AddChunks(7)
	done()
	a.AddPhaseNS("reduce", 1e6)
	a.Done()

	b := c.StartCell("cell-b", 1)
	b.MarkScheduleCacheHit()
	b.Phase("sweep")()
	b.Done()

	rep := c.Report("test-run")
	if rep.Schema != ReportSchema || rep.Command != "test-run" || rep.Workers != 2 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("want 2 cell reports, got %d", len(rep.Cells))
	}
	ca := rep.Cells[0]
	if ca.Cell != "cell-a" {
		t.Fatalf("cells not in start order: %+v", rep.Cells)
	}
	var phases []string
	for _, p := range ca.Phases {
		phases = append(phases, p.Name)
	}
	if strings.Join(phases, ",") != "synthesize,sweep,reduce" {
		t.Fatalf("phase order wrong: %v", phases)
	}
	if ca.Sweep == nil || ca.Sweep.WorkerSpans != 2 || ca.Sweep.Chunks != 7 || ca.Sweep.Workers != 2 {
		t.Fatalf("sweep util wrong: %+v", ca.Sweep)
	}
	if ca.Sweep.BusyMS != 5 || ca.Sweep.MaxBusyMS != 3 {
		t.Fatalf("busy accounting wrong: %+v", ca.Sweep)
	}
	if !rep.Cells[1].ScheduleCacheHit {
		t.Fatal("cache hit lost")
	}

	// The event stream must be valid JSONL with the documented lifecycle.
	var kinds []string
	sc := bufio.NewScanner(&events)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, e.Ev)
	}
	want := "run_start,cell_start,phase,phase,cell_done,cell_start,phase,cell_done,run_done"
	if got := strings.Join(kinds, ","); got != want {
		t.Fatalf("event stream = %s, want %s", got, want)
	}

	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
}

// TestReportEnvAndCalibration pins the env block and the calibration score
// every report carries: the running build and machine, under the JSON keys
// a diff of two reports reads, and one timed pass of the fixed-work loop.
func TestReportEnvAndCalibration(t *testing.T) {
	rep := NewCollector().Report("x")
	e := rep.Env
	if e.GoVersion != runtime.Version() || e.GOOS != runtime.GOOS || e.GOARCH != runtime.GOARCH {
		t.Errorf("build fields wrong: %+v", e)
	}
	if e.NumCPU != runtime.NumCPU() || e.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("cpu counts wrong: %+v", e)
	}
	if (runtime.GOARCH == "amd64") != strings.HasPrefix(e.GOAMD64, "v") {
		t.Errorf("goamd64 = %q on %s", e.GOAMD64, runtime.GOARCH)
	}
	if !slices.Equal(e.Args, os.Args[1:]) {
		t.Errorf("args = %q, want %q", e.Args, os.Args[1:])
	}
	if c := rep.Calibration; c.WorkUnits != calibrationUnits || c.MS <= 0 {
		t.Errorf("calibration = %+v, want %d work units in a positive time", c, calibrationUnits)
	}
	t.Logf("env %+v, calibration %+v", e, rep.Calibration)

	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Env         map[string]json.RawMessage `json:"env"`
		Calibration map[string]json.RawMessage `json:"calibration"`
	}
	if err := json.Unmarshal(out.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"go_version", "goos", "goarch", "num_cpu", "gomaxprocs", "cpu_model", "args"} {
		if _, ok := raw.Env[k]; !ok {
			t.Errorf("env lacks %q: %v", k, raw.Env)
		}
	}
	for _, k := range []string{"ms", "work_units"} {
		if _, ok := raw.Calibration[k]; !ok {
			t.Errorf("calibration lacks %q: %v", k, raw.Calibration)
		}
	}
}

func TestCPUModel(t *testing.T) {
	x86 := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n\nprocessor\t: 1\nmodel name\t: second\n"
	if got := cpuModel(x86); got != "Intel(R) Xeon(R) CPU @ 2.20GHz" {
		t.Errorf("cpuModel = %q, want the first model name", got)
	}
	if got := cpuModel("processor\t: 0\nBogoMIPS\t: 50.00\n"); got != "" {
		t.Errorf("cpuModel without a model name = %q, want empty", got)
	}
}

// TestPhaseAccumulates pins that repeated phases (per-rep schedule builds,
// per-rep sweeps) fold into one entry with a call count.
func TestPhaseAccumulates(t *testing.T) {
	c := NewCollector()
	o := c.StartCell("k", 0)
	o.AddPhaseNS("sweep-shards", 2e6)
	o.AddPhaseNS("sweep-shards", 3e6)
	o.Done()
	rep := c.Report("")
	if len(rep.Cells[0].Phases) != 1 {
		t.Fatalf("phases did not accumulate: %+v", rep.Cells[0].Phases)
	}
	p := rep.Cells[0].Phases[0]
	if p.Calls != 2 || p.MS != 5 {
		t.Fatalf("accumulation wrong: %+v", p)
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, 4)
	p.SetPhase("cell-a · sweep")
	p.CellDone()
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	for _, want := range []string{"1/4 cells", "cell-a · sweep", "heap ", "elapsed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q: %q", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Stop must end the line with a newline: %q", out)
	}
}

// TestServeDebug pins the debug endpoint: expvar with published obs
// metrics, and the pprof index.
func TestServeDebug(t *testing.T) {
	C("obs_test.debug_probe").Inc()
	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, "dosn_counters") || !strings.Contains(vars, "obs_test.debug_probe") {
		t.Fatalf("/debug/vars missing obs counters: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index looks wrong: %.200s", idx)
	}

	// A second endpoint in the same process must not panic on re-publish.
	d2, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
}
