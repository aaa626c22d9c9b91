package lint

import (
	"go/ast"
	"go/types"
)

// InputLit keeps replica.Placer the only constructor of a replica.Input in
// production code. A hand-assembled Input decides for itself which optional
// ingredients to prepare and how to encode them, so it can disagree with the
// policies' Traits — and an ingredient left out is a nil field the type
// system cannot see.
var InputLit = &Analyzer{
	Name: "inputlit",
	Doc: `forbid replica.Input composite literals outside package replica

A composite literal of type replica.Input in any other package is a finding:
build the Input with a replica.Placer, which prepares exactly the
ingredients the policies' Traits declare, and override a field of the
result where a caller really supplies its own (a windowed count vector).
Test files are outside the loader's surface, so tests may hand-build the
Inputs they compare against.`,
	Run: runInputLit,
}

func runInputLit(pass *Pass) error {
	if pathBase(pass.Pkg.Path()) == "replica" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			named, ok := types.Unalias(typeOfExpr(pass, lit)).(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj.Name() == "Input" && obj.Pkg() != nil && pathBase(obj.Pkg().Path()) == "replica" {
				pass.Reportf(lit.Pos(), "replica.Input assembled by hand: build it with a replica.Placer, which prepares what the policies' Traits declare")
			}
			return true
		})
	}
	return nil
}
