package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Int32Cast is the static generalization of the PR 6 overflow fix: the CSR
// indexes are int32, so every narrowing conversion on a length or index is a
// silent-wraparound hazard unless a bounds guard dominates it.
var Int32Cast = &Analyzer{
	Name: "int32cast",
	Doc: `flag unguarded narrowing integer conversions

Flags conversions to a sized integer type (int8/16/32, uint8/16/32) from a
wider integer operand — the int32 CSR-index overflow class — unless one of
these exonerates it:

  - the operand is a constant, or its type already fits the target;
  - an earlier if/for condition in the same function compares an identifier
    the operand mentions (a visible bounds guard);
  - an earlier statement in the function guards the whole construction: an
    if-condition referencing a Max*-named bound (math.MaxInt32,
    trace.MaxActivities) or a call to a check*/guard*/validate* function;
  - the operand is rng.Intn(c) with a constant c that fits the target;
  - the conversion carries //dosn:boundschecked <justification> (the guard
    lives at a caller or in a data invariant the analyzer cannot see).

int and uint are treated as 64-bit (the supported platforms); conversions to
named defined types (socialgraph.UserID) are out of scope — they
are identities, not lengths.`,
	Run: runInt32Cast,
}

func runInt32Cast(pass *Pass) error {
	for _, file := range pass.Files {
		dirs := parseDirectives(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncNarrowing(pass, fn, dirs)
		}
	}
	return nil
}

// guards are the bounds-guarding facts collected in one pass over a
// function body, consulted by position for every conversion found.
type guards struct {
	// conds are if/for conditions containing comparisons, with the objects
	// they mention.
	conds []condGuard
	// funcLevel are positions of whole-function guards: Max*-referencing
	// conditions and check*/guard*/validate* calls.
	funcLevel []token.Pos
}

type condGuard struct {
	pos  token.Pos
	objs []types.Object
}

func collectGuards(pass *Pass, fn *ast.FuncDecl) guards {
	var g guards
	addCond := func(cond ast.Expr, pos token.Pos) {
		if cond == nil || !containsComparison(cond) {
			return
		}
		g.conds = append(g.conds, condGuard{pos: pos, objs: identsOf(pass, cond)})
		if mentionsMaxBound(cond) {
			g.funcLevel = append(g.funcLevel, pos)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			addCond(s.Cond, s.Pos())
		case *ast.ForStmt:
			addCond(s.Cond, s.Pos())
		case *ast.CallExpr:
			name := strings.ToLower(calleeName(s))
			if strings.Contains(name, "check") || strings.Contains(name, "guard") || strings.Contains(name, "validate") {
				g.funcLevel = append(g.funcLevel, s.Pos())
			}
		}
		return true
	})
	return g
}

func checkFuncNarrowing(pass *Pass, fn *ast.FuncDecl, dirs fileDirectives) {
	g := collectGuards(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		target, ok := tv.Type.(*types.Basic) // named types are out of scope
		if !ok {
			return true
		}
		tw := sizedIntWidth(target)
		if tw == 0 {
			return true
		}
		arg := call.Args[0]
		atv, ok := pass.TypesInfo.Types[arg]
		if !ok {
			return true
		}
		if atv.Value != nil {
			return true // constant: an out-of-range value fails elsewhere
		}
		ab, ok := atv.Type.Underlying().(*types.Basic)
		if !ok || ab.Info()&types.IsInteger == 0 {
			return true
		}
		if intWidth(ab) <= tw {
			return true // not a narrowing
		}
		if boundedIntn(pass, arg, tw) {
			return true
		}
		if d, ok := dirs.covering(pass.Fset, call.Pos(), DirectiveBoundsChecked); ok && d.arg != "" {
			return true
		}
		if guardedBefore(pass, g, call, arg) {
			return true
		}
		pass.Reportf(call.Pos(), "unguarded narrowing conversion %s(...) from %s: guard the magnitude first (compare against the bound, or call a check* helper), or waive with //dosn:boundschecked <why>", target.Name(), ab.Name())
		return true
	})
}

// guardedBefore reports whether any collected guard dominates the
// conversion: a function-level guard earlier in the body, or an earlier
// comparison mentioning an identifier the operand mentions.
func guardedBefore(pass *Pass, g guards, call *ast.CallExpr, arg ast.Expr) bool {
	for _, pos := range g.funcLevel {
		if pos < call.Pos() {
			return true
		}
	}
	argObjs := identsOf(pass, arg)
	for _, c := range g.conds {
		if c.pos >= call.Pos() {
			continue
		}
		for _, co := range c.objs {
			if co == nil || co.Pos() == token.NoPos {
				continue
			}
			for _, ao := range argObjs {
				if co == ao {
					return true
				}
			}
		}
	}
	return false
}

// sizedIntWidth returns the bit width of the sized integer kinds the
// analyzer polices, 0 for anything else (including int/int64: widening or
// same-width conversions to them are not the hazard class).
func sizedIntWidth(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	}
	return 0
}

// intWidth returns the bit width of any integer basic type; int, uint and
// uintptr count as 64 (the supported platforms).
func intWidth(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}

// containsComparison reports whether expr contains an ordering comparison —
// the shape of a bounds guard.
func containsComparison(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// mentionsMaxBound reports whether the condition references an identifier
// starting with "Max" (math.MaxInt32, trace.MaxActivities, MaxDegree...):
// the conventional shape of an explicit overflow guard, which bounds the
// whole construction that follows, not just one identifier.
func mentionsMaxBound(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.HasPrefix(id.Name, "Max") {
			found = true
			return false
		}
		return !found
	})
	return found
}

// boundedIntn recognizes rng.Intn(c) (and Int31n/Int63n) with a constant
// bound that fits the target width: the draw is in [0, c).
func boundedIntn(pass *Pass, arg ast.Expr, targetWidth int) bool {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	switch calleeName(call) {
	case "Intn", "Int31n", "Int63n":
	default:
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constIntValue(tv)
	if !ok {
		return false
	}
	max := int64(1) << (targetWidth - 1) // signed bound; Intn draws are ≥ 0
	return v <= max
}
