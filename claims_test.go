package dosn_test

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dosn"
	"dosn/internal/harness"
)

// TestClaimsLedgerSources holds PAPER.md's claims ledger to its provenance:
// every row has a unique id, a known kind and "no" under
// verified-against-text (nobody has checked a row against the paper's
// text), and its source line exists and carries the row (carries). A row
// whose line moved or lost its citation fails here, naming the nearest line
// within ±30 that carries it, until it is re-pointed.
func TestClaimsLedgerSources(t *testing.T) {
	data, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{"definition": true, "setup": true, "expected-shape": true}
	seen := map[string]bool{}
	files := map[string][]string{}
	for _, row := range ledgerRows(string(data)) {
		if row.cols != 6 {
			t.Errorf("ledger row has %d columns, want 6: %s", row.cols, row.line)
			continue
		}
		if seen[row.id] {
			t.Errorf("ledger id %s appears twice", row.id)
		}
		seen[row.id] = true
		if !kinds[row.kind] {
			t.Errorf("%s: kind %q, want definition, setup or expected-shape", row.id, row.kind)
		}
		if row.verified != "no" {
			t.Errorf("%s: verified-against-text %q; no row has been checked against the paper's text", row.id, row.verified)
		}
		if err := row.check(files); err != nil {
			t.Error(err)
		}
	}
	if len(seen) == 0 {
		t.Fatal("PAPER.md has no ledger rows")
	}
}

// TestClaimsLedgerRejectsUnrelatedLine: a row whose marker is "—" fails on a
// line that says "paper" but shares no word with its statement — S15, the
// cross product, re-pointed at the README's "Not measured" line.
func TestClaimsLedgerRejectsUnrelatedLine(t *testing.T) {
	data, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := ledgerRows(string(data))
	i := slices.IndexFunc(rows, func(r ledgerRow) bool { return r.id == "S15" })
	if i < 0 {
		t.Fatal("PAPER.md has no S15 row")
	}
	row := rows[i]
	if row.section != "—" {
		t.Fatalf("S15's marker is %q, want —", row.section)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(readme), "\n")
	n := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "**Not measured.**") })
	if n < 0 || !strings.Contains(strings.ToLower(lines[n]), "paper") {
		t.Fatal(`README.md has no "Not measured" line that says "paper"`)
	}
	row.source = fmt.Sprintf("README.md:%d", n+1)
	if err := row.check(map[string][]string{}); err == nil {
		t.Errorf("S15 passes at %s: %s", row.source, lines[n])
	}
}

// ledgerRow is one row of PAPER.md's claims ledger.
type ledgerRow struct {
	line, id, statement, source, section, kind, verified string
	cols                                                 int // the row's column count
}

// ledgerRows returns the rows of the ledger tables in a PAPER.md text.
func ledgerRows(text string) []ledgerRow {
	var out []ledgerRow
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| id ") || strings.HasPrefix(line, "| --- ") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "| "), " | ")
		row := ledgerRow{line: line, cols: len(cols)}
		if len(cols) == 6 {
			row.id, row.statement, row.source, row.section, row.kind, row.verified =
				cols[0], cols[1], strings.Trim(cols[2], "`"), cols[3], cols[4], cols[5]
		}
		out = append(out, row)
	}
	return out
}

// check reports whether the row's source line exists and carries the row,
// reading the cited files through the files cache.
func (r ledgerRow) check(files map[string][]string) error {
	path, lineNo, ok := strings.Cut(r.source, ":")
	n, err := strconv.Atoi(lineNo)
	if !ok || err != nil || n < 1 {
		return fmt.Errorf("%s: source %q is not file:line", r.id, r.source)
	}
	src, ok := files[path]
	if !ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		src = strings.Split(string(data), "\n")
		files[path] = src
	}
	if n > len(src) {
		return fmt.Errorf("%s: %s has %d lines, the row cites line %d", r.id, path, len(src), n)
	}
	if r.carries(src[n-1]) {
		return nil
	}
	hint := "no line within ±30 carries it"
	if near := r.nearestCarrier(src, n, 30); near > 0 {
		hint = fmt.Sprintf("nearest line carrying it: %s:%d", path, near)
	}
	return fmt.Errorf("%s: %s does not carry %q and a word of the statement (%s): %s", r.id, r.source, r.section, hint, strings.TrimSpace(src[n-1]))
}

// carries reports whether a source line carries the row: its section marker
// (or, for a row that cites no section, "—", the word "paper") and a word of
// its statement, two words matching when they agree in their first six
// letters ("activity" and "activities").
func (r ledgerRow) carries(line string) bool {
	if r.section == "—" {
		if !strings.Contains(strings.ToLower(line), "paper") {
			return false
		}
	} else if !strings.Contains(line, r.section) {
		return false
	}
	stems := wordStems(line)
	for s := range wordStems(r.statement) {
		if stems[s] {
			return true
		}
	}
	return false
}

// wordStems returns the first six letters, lower-cased, of every run of six
// or more letters in s.
func wordStems(s string) map[string]bool {
	out := map[string]bool{}
	for _, w := range strings.FieldsFunc(strings.ToLower(s), func(c rune) bool { return c < 'a' || c > 'z' }) {
		if len(w) >= 6 {
			out[w[:6]] = true
		}
	}
	return out
}

// nearestCarrier returns the 1-based number of the line within ±radius of
// line n that carries the row, the nearer one first and the earlier on a
// tie, or 0 when none does — so re-pointing a row whose line moved is a
// copy of the number the failure names.
func (r ledgerRow) nearestCarrier(src []string, n, radius int) int {
	for d := 1; d <= radius; d++ {
		for _, c := range []int{n - d, n + d} {
			if c >= 1 && c <= len(src) && r.carries(src[c-1]) {
				return c
			}
		}
	}
	return 0
}

// Markers around README.md's generated Results section.
const (
	resultsBegin = "<!-- results:begin (generated: go test -run TestReadmeResults -update .) -->\n"
	resultsEnd   = "<!-- results:end -->\n"
)

// TestReadmeResults holds README.md's Results section to the claims table
// of `dosn-sim -fig all -scale paper -repeats 5`, as the evaluator writes
// it; -update rewrites the section. It renders every figure at paper scale
// (about 2 s on two cores).
func TestReadmeResults(t *testing.T) {
	spec := harness.MatrixSpec{
		Datasets: []harness.DatasetSpec{
			{Name: "facebook", Users: dosn.PaperFacebookUsers},
			{Name: "twitter", Users: dosn.PaperTwitterUsers},
		},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    5,
		RootSeed:   42,
	}
	table, err := harness.Claims(spec)
	if err != nil {
		t.Fatalf("Claims: %v", err)
	}
	var section bytes.Buffer
	if err := table.WriteResults(&section, "dosn-sim -fig all -scale paper -repeats 5 -seed 42"); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok := strings.Cut(string(readme), resultsBegin)
	current, after, ok2 := strings.Cut(rest, resultsEnd)
	if !ok || !ok2 {
		t.Fatalf("README.md lacks the Results markers %q … %q", resultsBegin, resultsEnd)
	}
	if *update {
		out := before + resultsBegin + section.String() + resultsEnd + after
		if err := os.WriteFile("README.md", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if current != section.String() {
		t.Errorf("README.md's Results section is stale; regenerate it with go test -run TestReadmeResults -update .\n--- want\n%s", section.String())
	}
}
