package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

//go:embed expected.json
var expectedJSON []byte

// pinnedSeed is the seed whose output hashes expected.json holds.
const pinnedSeed = 42

// pinnedHash returns the SHA-256 the workload's canonical output must have,
// or "" when none is pinned for the seed and input size; the checker then
// holds every iteration to the first one.
func pinnedHash(o options) string {
	if o.seed != pinnedSeed {
		return ""
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		panic("bench: expected.json: " + err.Error()) // embedded at build time
	}
	if o.quick {
		return pins["quick"][o.workload]
	}
	return pins["full"][o.workload]
}

// runAA runs every workload K times as set A and K times as set B of the
// same code, alternating which side is launched first, and compares the
// medians of every end-to-end metric against its bound. One traced run per
// side checks that the exact counts repeat.
func runAA(o options, stdout, stderr io.Writer) error {
	env := newEnvStamp()
	fmt.Fprintf(stdout, "A/A self-check, K = %d per side, seed %d: %s, %s, GOMAXPROCS %d of %d CPUs, commit %s\n\n",
		o.aa, o.seed, env.GoVersion, env.CPUModel, env.GOMAXPROCS, env.NumCPU, env.Commit)
	fmt.Fprintln(stdout, "| workload | metric | median A | median B | gap | bound | IQR A | |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, name := range workloadNames {
		sides := [2]map[string][]float64{{}, {}}
		for k := 0; k < o.aa; k++ {
			for j := 0; j < 2; j++ {
				side := (k + j) % 2
				fmt.Fprintf(stderr, "== %s run %d side %c (1-minute load %.2f)\n", name, k+1, 'A'+side, load1())
				r, err := runWorkloadProcess(o, name, false, stderr)
				if err != nil {
					return err
				}
				for _, d := range endToEnd {
					sides[side][d.Name] = append(sides[side][d.Name], r.Metrics[d.Name].Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sides[0][d.Name]), median(sides[1][d.Name])
			gap := math.Abs(b-a) / a
			verdict := "ok"
			if gap > d.Bound {
				verdict = "OVER"
				bad++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4f | %.4f | %.2f%% | %.0f%% | %.2f%% | %s |\n",
				name, d.Name, a, b, 100*gap, 100*d.Bound, 100*iqrShare(sides[0][d.Name]), verdict)
		}
		var traced [2]result
		for side := range traced {
			var err error
			if traced[side], err = runWorkloadProcess(o, name, true, stderr); err != nil {
				return err
			}
		}
		for _, c := range exactCounts {
			if a, b := traced[0].Metrics[c].Value, traced[1].Metrics[c].Value; a != b {
				fmt.Fprintf(stdout, "| %s | %s | %v | %v | exact count differs | | | OVER |\n", name, c, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d comparisons outside their bound", bad)
	}
	return nil
}
