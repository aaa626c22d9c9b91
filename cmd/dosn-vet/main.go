// Command dosn-vet runs the repository's custom static-analysis suite — the
// seven internal/lint analyzers enforcing determinism (detrand, maporder),
// int32 overflow safety (int32cast), hot-path allocation discipline
// (hotalloc), sanctioned panic recovery (saferecover), one constructor for
// placement inputs (inputlit) and joined, panic-safe fan-outs (rawgo) — over
// the packages matching the given patterns.
//
// Usage:
//
//	go run ./cmd/dosn-vet ./...
//	go run ./cmd/dosn-vet -help
//
// Findings print as file:line:col: message [analyzer]; the exit status is 1
// when any finding or error occurs, 0 on a clean tree. CI runs it as a
// required step between `go vet` and the tests.
package main

import (
	"flag"
	"fmt"
	"os"

	"dosn/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dosn-vet", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	help := fs.Bool("help", false, "print analyzer documentation and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *help {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dosn-vet:", err)
		return 1
	}
	findings, err := lint.RunAnalyzers(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dosn-vet:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dosn-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
