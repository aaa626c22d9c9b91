package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// runFixture type-checks the one-package fixture directory under testdata
// and compares the analyzer's diagnostics against `// want "regex"` trailing
// comments, analysistest-style: every diagnostic must match a want on its
// line, and every want must be hit. The fixture's package name doubles as
// its import path, which is how detrand fixtures opt in or out of the
// deterministic-package set. A sub-directory X of the fixture is a stand-in
// the fixture imports as "dosn/internal/X" (the source importer resolves
// only the standard library).
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The "source" importer resolves the standard library straight from
	// GOROOT — no module machinery.
	imp := mapImporter{pkgs: map[string]*types.Package{}, fallback: importer.ForCompiler(fset, "source", nil)}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() {
			path := "dosn/internal/" + e.Name()
			src, err := os.ReadFile(filepath.Join(dir, e.Name(), e.Name()+".go"))
			if err != nil {
				t.Fatal(err)
			}
			imp.pkgs[path], _, _ = checkSrc(t, fset, path, string(src), imp.fallback)
			continue
		}
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: imp}
	pkgName := files[0].Name.Name
	pkg, err := cfg.Check(pkgName, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", dir, err)
	}

	var got []Finding
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d Diagnostic) {
			got = append(got, Finding{Analyzer: a.Name, Position: fset.Position(d.Pos), Message: d.Message})
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, fset, files)
	matched := make([]bool, len(wants))
	for _, f := range got {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != f.Position.Filename || w.line != f.Position.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRE extracts the patterns of one `// want "p1" "p2"` comment; patterns
// may be double- or back-quoted.
var wantRE = regexp.MustCompile("//\\s*want\\s+((?:(?:\"[^\"]*\"|`[^`]*`)\\s*)+)")
var patRE = regexp.MustCompile("\"[^\"]*\"|`[^`]*`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range patRE.FindAllString(m[1], -1) {
					re, err := regexp.Compile(q[1 : len(q)-1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

func TestDetRandFixtures(t *testing.T) {
	// package "core" is in the deterministic set: findings and waivers.
	runFixture(t, DetRand, filepath.Join("testdata", "detrand", "core"))
	// package "plotx" is not: the same constructs draw no findings.
	runFixture(t, DetRand, filepath.Join("testdata", "detrand", "plotx"))
}

func TestMapOrderFixtures(t *testing.T) {
	runFixture(t, MapOrder, filepath.Join("testdata", "maporder", "fixture"))
}

func TestInt32CastFixtures(t *testing.T) {
	runFixture(t, Int32Cast, filepath.Join("testdata", "int32cast", "fixture"))
}

func TestHotAllocFixtures(t *testing.T) {
	runFixture(t, HotAlloc, filepath.Join("testdata", "hotalloc", "fixture"))
}

func TestSafeRecoverFixtures(t *testing.T) {
	runFixture(t, SafeRecover, filepath.Join("testdata", "saferecover", "fixture"))
}

func TestInputLitFixtures(t *testing.T) {
	runFixture(t, InputLit, filepath.Join("testdata", "inputlit", "fixture"))
}

func TestRawGoFixtures(t *testing.T) {
	// Package "core" is a compute package; package "harness" is covered too,
	// with its watchdog waived. That rawgo leaves other packages alone is
	// TestRepoIsClean's to show: internal/fault joins its fan-outs with a
	// WaitGroup and no waiver.
	runFixture(t, RawGo, filepath.Join("testdata", "rawgo", "core"))
	runFixture(t, RawGo, filepath.Join("testdata", "rawgo", "harness"))
}

// TestRepoIsClean is the smoke gate: the dosn-vet suite must exit clean on
// the repository itself. A finding here means either a real regression or a
// fix/waiver that lost its justification.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	findings, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
