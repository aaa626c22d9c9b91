package obs

import (
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Env is the machine and build a report was taken on, so that two reports'
// timings are compared only after their environments are.
type Env struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOAMD64    string   `json:"goamd64,omitempty"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Commit     string   `json:"commit,omitempty"`
	Args       []string `json:"args"`
}

// readEnv describes the running process. Commit is the build's VCS revision,
// suffixed "+modified" when the tree had uncommitted changes; it is empty for
// binaries built without VCS stamping (go run, go test).
func readEnv() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Args:       os.Args[1:],
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		e.CPUModel = cpuModel(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				e.GOAMD64 = s.Value
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && e.Commit != "" {
			e.Commit += "+modified"
		}
	}
	return e
}

// cpuModel returns the first "model name" in a /proc/cpuinfo listing, or ""
// when there is none (arm64 kernels, say, print no such line).
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Calibration is a fixed-work score: the same loop, over the same data, in
// every build and on every machine, so its time says how fast this machine
// ran this build apart from anything the measured run did.
type Calibration struct {
	MS        float64 `json:"ms"`
	WorkUnits int64   `json:"work_units"`
}

// The calibration loop is the sweep's kind of work: a greedy-cover pass that
// counts each day bitmap's new minutes against the union so far (popcount of
// AND-NOT) and ORs it in. A day of minutes is 23 words, the length of an
// interval.Bitmap; 64 of them (11.8 KB) stay in L1, so the loop measures the
// core, not the memory system. One work unit is one word counted and ORed.
const (
	calibrationWords   = 23
	calibrationBitmaps = 64
	calibrationRounds  = 34000
	calibrationUnits   = calibrationRounds * calibrationBitmaps * calibrationWords
)

// calibrationSink keeps the loop's result live, so the compiler cannot drop
// the loop.
var calibrationSink int

// calibrate runs the calibration loop once and times it.
func calibrate() Calibration {
	var maps [calibrationBitmaps][calibrationWords]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range maps {
		for j := range maps[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			maps[i][j] = x & (x >> 3) // about a quarter of the bits set
		}
	}
	w := StartWatch()
	gained := 0
	for r := 0; r < calibrationRounds; r++ {
		var union [calibrationWords]uint64
		for i := range maps {
			m := &maps[(i+r)%calibrationBitmaps]
			for j, word := range m {
				gained += bits.OnesCount64(word &^ union[j])
				union[j] |= word
			}
		}
	}
	ns := w.ElapsedNS()
	calibrationSink = gained
	return Calibration{MS: roundMS(float64(ns) / 1e6), WorkUnits: calibrationUnits}
}
