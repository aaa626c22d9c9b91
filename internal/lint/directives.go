package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names recognized by the suite. Each is written as a line comment
// `//dosn:<name> <justification>`; every waiver form requires a nonempty
// justification so the "why" survives next to the code it excuses.
const (
	// DirectiveHotPath marks a function whose body hotalloc checks for
	// allocating constructs. No justification needed — it is an assertion,
	// not a waiver.
	DirectiveHotPath = "hotpath"
	// DirectiveOrderInvariant waives one map-range finding: the loop body's
	// effect is the same for every iteration order.
	DirectiveOrderInvariant = "orderinvariant"
	// DirectiveBoundsChecked waives one narrowing-conversion finding: the
	// operand is bounded by a guard the analyzer cannot see (typically at
	// the caller, or through a data invariant).
	DirectiveBoundsChecked = "boundschecked"
	// DirectiveWallClock waives one time.Now finding in a deterministic
	// package: the reading feeds execution-only instrumentation, never a
	// result.
	DirectiveWallClock = "wallclock"
	// DirectiveRecover sanctions one recover() call: the boundary converts
	// the panic to an error (fault.PanicError) instead of swallowing it.
	DirectiveRecover = "recover"
)

const directivePrefix = "//dosn:"

// directive is one parsed //dosn: comment.
type directive struct {
	name string // e.g. "orderinvariant"
	arg  string // justification text after the name, may be empty
	line int    // line the comment starts on
	pos  token.Pos
}

// fileDirectives indexes a file's //dosn: comments by line so analyzers can
// ask "is the statement at line L waived?" in O(1).
type fileDirectives struct {
	byLine map[int][]directive
}

// parseDirectives scans every comment in the file.
func parseDirectives(fset *token.FileSet, file *ast.File) fileDirectives {
	d := fileDirectives{byLine: make(map[int][]directive)}
	for _, group := range file.Comments {
		for _, c := range group.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			name, arg, _ := strings.Cut(rest, " ")
			line := fset.Position(c.Pos()).Line
			d.byLine[line] = append(d.byLine[line], directive{
				name: name,
				arg:  strings.TrimSpace(arg),
				line: line,
				pos:  c.Pos(),
			})
		}
	}
	return d
}

// covering returns the directive with the given name that covers a node
// starting at pos: a //dosn: comment either trailing on the same line or on
// the line immediately above. The bool reports whether one was found.
func (d fileDirectives) covering(fset *token.FileSet, pos token.Pos, name string) (directive, bool) {
	line := fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, dir := range d.byLine[l] {
			if dir.name == name {
				return dir, true
			}
		}
	}
	return directive{}, false
}

// funcHasDirective reports whether fn's doc comment carries the named
// directive (used for //dosn:hotpath, which attaches to declarations).
func funcHasDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, directivePrefix+name) {
			return true
		}
	}
	return false
}
