package lint

import "go/ast"

// RawGo keeps hand-rolled goroutine pools out of the compute packages and
// the harness: a pool that forgets to recover ends the process on a
// worker's panic.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc: `forbid go statements and sync.WaitGroup in the compute packages and the harness

In core, onlinetime, replica, metrics, dht, trace, socialgraph and harness,
a go statement or a mention of sync.WaitGroup is a finding: fan out with
fault.Parallel or fault.Chunks, which join every goroutine they start and
carry a panic back to the caller. A goroutine that is not a fan-out is waived
with //dosn:go <justification> on the same line or the line above.`,
	Run: runRawGo,
}

var rawGoPkgs = map[string]bool{
	"core": true, "onlinetime": true, "replica": true, "metrics": true,
	"dht": true, "trace": true, "socialgraph": true, "harness": true,
}

func runRawGo(pass *Pass) error {
	if !rawGoPkgs[pathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		dirs := parseDirectives(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			what := ""
			switch e := n.(type) {
			case *ast.GoStmt:
				what = "go statement"
			case *ast.SelectorExpr:
				if importedPkgPath(pass, e) == "sync" && e.Sel.Name == "WaitGroup" {
					what = "sync.WaitGroup"
				}
			}
			if what == "" {
				return true
			}
			if d, ok := dirs.covering(pass.Fset, n.Pos(), DirectiveGo); !ok || d.arg == "" {
				pass.Reportf(n.Pos(), "%s in a compute package: fan out with fault.Parallel or fault.Chunks, or waive the line with //dosn:go <why>", what)
			}
			return true
		})
	}
	return nil
}
