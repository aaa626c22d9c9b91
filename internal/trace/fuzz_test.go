package trace

import (
	"bytes"
	"strings"
	"testing"

	"dosn/internal/socialgraph"
)

// FuzzReadActivities checks that the activity parser never panics and that
// accepted inputs round-trip. The seed corpus runs as part of `go test`;
// `go test -fuzz=FuzzReadActivities ./internal/trace` explores further.
func FuzzReadActivities(f *testing.F) {
	f.Add("# dosn-activities 1\n1,2,1252540800\n")
	f.Add("# dosn-activities 0\n")
	f.Add("")
	f.Add("# dosn-activities 2\n1,2,3\n# comment\n\n4,5,6\n")
	f.Add("# dosn-activities 1\n-1,-2,-3\n")
	f.Add("# dosn-activities 1\n1,2\n")
	f.Add("junk\n1,2,3\n")
	f.Add("# dosn-activities 9999999999\n")
	f.Add("# dosn-activities 1\n4294967297,2,3\n")
	f.Add("# dosn-activities 1\n-2147483649,2147483648,3\n")
	f.Fuzz(func(t *testing.T, in string) {
		acts, err := ReadActivities(strings.NewReader(in))
		if err != nil {
			return // malformed input must error, never panic
		}
		var buf bytes.Buffer
		if err := WriteActivities(&buf, acts); err != nil {
			t.Fatalf("re-serialize accepted input: %v", err)
		}
		back, err := ReadActivities(&buf)
		if err != nil {
			t.Fatalf("reparse own output: %v", err)
		}
		if len(back) != len(acts) {
			t.Fatalf("round trip lost activities: %d vs %d", len(back), len(acts))
		}
	})
}

// FuzzReadEdges does the same for the graph parser.
func FuzzReadEdges(f *testing.F) {
	f.Add("# dosn-graph undirected 3\n0,1\n1,2\n")
	f.Add("# dosn-graph directed 2\n0,1\n")
	f.Add("# dosn-graph undirected 0\n")
	f.Add("")
	f.Add("# dosn-graph undirected 3\n0,0\n9,9\n-1,2\n")
	f.Add("# dosn-graph weird 3\n0,1\n")
	f.Add("# dosn-graph Directed 3\n1,0\n")
	f.Add("# dosn-graph Undirected 3\n1,0\n")
	f.Add("# dosn-graph direct 3\n1,0\n")
	f.Add("# dosn-graph undirected 3\n4294967297,2\n")
	f.Add("# dosn-graph undirected -1\n")
	f.Add("# dosn-graph undirected 4294967296\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := socialgraph.ReadEdges(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteEdges(&buf); err != nil {
			t.Fatalf("re-serialize accepted graph: %v", err)
		}
		g2, err := socialgraph.ReadEdges(&buf)
		if err != nil {
			t.Fatalf("reparse own output: %v", err)
		}
		if g2.NumUsers() != g.NumUsers() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip mismatch: %d/%d users %d/%d edges",
				g2.NumUsers(), g.NumUsers(), g2.NumEdges(), g.NumEdges())
		}
	})
}
