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
carry a panic back to the caller. There is no waiver.`,
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
			if what != "" {
				pass.Reportf(n.Pos(), "%s in a compute package: fan out with fault.Parallel or fault.Chunks", what)
			}
			return true
		})
	}
	return nil
}
