// Package lint implements the dosn-vet static-analysis suite: seven
// repository-specific analyzers that enforce, at review time, the invariants
// the test suite can only check dynamically — deterministic execution
// (detrand, maporder), int32 CSR overflow safety (int32cast),
// allocation-free hot paths (hotalloc), sanctioned panic-recovery
// boundaries (saferecover), one constructor for placement inputs (inputlit),
// and no hand-rolled goroutine pools in the compute packages (rawgo).
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone: packages are
// discovered with `go list` and type-checked from source (load.go), so the
// suite needs no module downloads and runs in the same environments as the
// rest of the repository.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Run inspects a single package via its
// Pass and reports findings through pass.Report.
type Analyzer struct {
	// Name is the short identifier printed in brackets after each finding.
	Name string
	// Doc is a one-paragraph description shown by `dosn-vet -help`.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo maps syntax to types and objects for the package.
	TypesInfo *types.Info
	// Report records one finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full dosn-vet suite in the order findings are
// conventionally listed.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, MapOrder, Int32Cast, HotAlloc, SafeRecover, InputLit, RawGo}
}

// Finding pairs a diagnostic with the analyzer that produced it and its
// resolved position, ready for printing and sorting.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Position.Filename, f.Position.Line, f.Position.Column, f.Message, f.Analyzer)
}

// RunAnalyzers runs every analyzer over every package and returns the
// findings sorted by file, line, column, then analyzer name. Analyzer
// errors (not findings) abort the run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
