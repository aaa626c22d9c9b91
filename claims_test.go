package dosn_test

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestClaimsLedgerSources holds PAPER.md's claims ledger to its provenance:
// every row has a unique id, a known kind and "no" under
// verified-against-text (nobody has checked a row against the paper's
// text), and its source line exists and carries the row's section marker —
// the marker itself, or the word "paper" for a row whose source names no
// section ("—"). A row whose line moved or lost its citation fails here,
// naming the nearest line within ±30 that carries the marker, until it is
// re-pointed.
func TestClaimsLedgerSources(t *testing.T) {
	f, err := os.Open("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]bool{"definition": true, "setup": true, "expected-shape": true}
	seen := map[string]bool{}
	files := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| id ") || strings.HasPrefix(line, "| --- ") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cols) != 6 {
			t.Errorf("ledger row has %d columns, want 6: %s", len(cols), line)
			continue
		}
		id, source, section, kind, verified := cols[0], strings.Trim(cols[2], "`"), cols[3], cols[4], cols[5]
		if seen[id] {
			t.Errorf("ledger id %s appears twice", id)
		}
		seen[id] = true
		if !kinds[kind] {
			t.Errorf("%s: kind %q, want definition, setup or expected-shape", id, kind)
		}
		if verified != "no" {
			t.Errorf("%s: verified-against-text %q; no row has been checked against the paper's text", id, verified)
		}
		path, lineNo, ok := strings.Cut(source, ":")
		n, err := strconv.Atoi(lineNo)
		if !ok || err != nil || n < 1 {
			t.Errorf("%s: source %q is not file:line", id, source)
			continue
		}
		src, ok := files[path]
		if !ok {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				continue
			}
			src = strings.Split(string(data), "\n")
			files[path] = src
		}
		if n > len(src) {
			t.Errorf("%s: %s has %d lines, the row cites line %d", id, path, len(src), n)
			continue
		}
		if carries(src[n-1], section) {
			continue
		}
		hint := "no line within ±30 carries it"
		if near := nearestCarrier(src, n, section, 30); near > 0 {
			hint = fmt.Sprintf("nearest line carrying it: %s:%d", path, near)
		}
		t.Errorf("%s: %s does not carry %q (%s): %s", id, source, section, hint, strings.TrimSpace(src[n-1]))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("PAPER.md has no ledger rows")
	}
}

// carries reports whether a source line carries a row's section marker: the
// marker itself, or the word "paper" for a row that cites no section ("—").
func carries(line, section string) bool {
	if section == "—" {
		return strings.Contains(strings.ToLower(line), "paper")
	}
	return strings.Contains(line, section)
}

// nearestCarrier returns the 1-based number of the line within ±radius of
// line n that carries the section marker, the nearer one first and the
// earlier on a tie, or 0 when none does — so re-pointing a row whose line
// moved is a copy of the number the failure names.
func nearestCarrier(src []string, n int, section string, radius int) int {
	for d := 1; d <= radius; d++ {
		for _, c := range []int{n - d, n + d} {
			if c >= 1 && c <= len(src) && carries(src[c-1], section) {
				return c
			}
		}
	}
	return 0
}
