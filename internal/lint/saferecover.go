package lint

import (
	"go/ast"
	"go/types"
)

// SafeRecover forbids bare recover() calls outside sanctioned boundaries. A
// recover that swallows a panic silently turns a crash into corrupted state;
// the repository's crash-safety design (internal/fault's fan-out joins,
// harness cell isolation) concentrates recovery at a handful of
// audited seams, each converting the panic into an error via
// fault.PanicError. Every such seam must carry //dosn:recover <why> so new
// recovery points are a reviewed decision, not an accident.
var SafeRecover = &Analyzer{
	Name: "saferecover",
	Doc: `forbid recover() outside sanctioned, annotated boundaries

Every call to the recover builtin must be covered by a
//dosn:recover <justification> directive on the same line or the line above.
Sanctioned boundaries turn the panic into an error (fault.PanicError keeps
injected faults and stack traces intact) and are listed in README's
robustness section; an unannotated recover is either a swallowed crash or an
unreviewed one.`,
	Run: runSafeRecover,
}

func runSafeRecover(pass *Pass) error {
	for _, file := range pass.Files {
		dirs := parseDirectives(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "recover" {
				return true
			}
			// Only the builtin: a local function shadowing the name is not a
			// panic boundary.
			if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
				return true
			}
			if d, ok := dirs.covering(pass.Fset, call.Pos(), DirectiveRecover); ok && d.arg != "" {
				return true
			}
			pass.Reportf(call.Pos(), "bare recover() outside a sanctioned boundary: convert the panic to an error (fault.PanicError) and annotate the seam with //dosn:recover <why>")
			return true
		})
	}
	return nil
}
