package dosn_test

import (
	"bufio"
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
// section ("—"). A row whose line moved or lost its citation fails here
// until it is re-pointed.
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
		cited, marker := src[n-1], section
		if section == "—" {
			cited, marker = strings.ToLower(cited), "paper"
		}
		if !strings.Contains(cited, marker) {
			t.Errorf("%s: %s does not carry %q: %s", id, source, marker, strings.TrimSpace(src[n-1]))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("PAPER.md has no ledger rows")
	}
}
