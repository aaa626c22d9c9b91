package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRand forbids nondeterminism sources in the deterministic packages: the
// simulation's contract is that every result is a pure function of (spec,
// seed), bit-identical across worker counts and reruns. Wall-clock reads and
// the global math/rand source break replay silently.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: `forbid nondeterminism sources in deterministic packages

In packages whose results must be a pure function of (config, seed) — core,
harness, trace, onlinetime, replica, dht, interval, metrics, stats,
socialgraph, mathrand — flags:

  - time.Now() calls (waive execution-only instrumentation with
    //dosn:wallclock <justification>);
  - the global math/rand top-level functions (rand.Intn, rand.Float64,
    rand.Shuffle, ...), which draw from a shared process-wide source;
  - rand.NewSource(x), mathrand.New(x), and Seed(x) on a *rand.Rand, a
    *mathrand.Rand or a *mathrand.Source, where x does not visibly derive
    from a seed: some identifier in the argument must contain "seed"
    (case-insensitive), the repository's convention for plumbed
    Config/seed parameters.
  - reads of internal/obs telemetry state (Value, Counters, Timers, Report,
    ReadMem, ...): obs is execution-only, and its readings are wall-clock
    derived — deterministic code may write into it (Inc, Add, AddPhaseNS)
    but must never branch on what it measured.

Every other method on an explicit *rand.Rand or *mathrand.Rand is fine.`,
	Run: runDetRand,
}

// deterministicPkgs names the packages (by path base) under the
// pure-function-of-seed contract.
var deterministicPkgs = map[string]bool{
	"core": true, "harness": true, "trace": true, "onlinetime": true,
	"replica": true, "dht": true, "interval": true, "metrics": true,
	"stats": true, "socialgraph": true, "mathrand": true,
}

// executionOnlyPkgs names the packages (by path base) that are explicitly
// execution-only: internal/obs and internal/obs/prof observe how a run
// executes (wall clock, heap, profiles) and never feed results. They are
// exempt from the deterministic contract by construction — and, dually,
// deterministic packages may write into them (counter increments, span
// durations) but must never read telemetry back, which is what the
// obsReadbackFuncs check below enforces.
var executionOnlyPkgs = map[string]bool{
	"obs": true, "prof": true,
}

// obsReadbackFuncs are the internal/obs calls that read telemetry state
// back out. Elapsed/ElapsedNS/Started are deliberately absent: a stopwatch
// reading is how deterministic code *feeds* a duration into an obs sink
// (core.Run → AddPhaseNS), and the value never influences results.
var obsReadbackFuncs = map[string]bool{
	"Value": true, "Counters": true, "Timers": true,
	"CounterNames": true, "Stat": true, "Report": true, "ReadMem": true,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. Constructors (New, NewSource, NewZipf) are handled
// separately: they only produce state, they do not draw from it.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

func runDetRand(pass *Pass) error {
	if !deterministicPkgs[pathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		dirs := parseDirectives(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch importedPkgPath(pass, sel) {
			case "time":
				if sel.Sel.Name != "Now" {
					break
				}
				if d, ok := dirs.covering(pass.Fset, call.Pos(), DirectiveWallClock); ok && d.arg != "" {
					break
				}
				pass.Reportf(call.Pos(), "time.Now in deterministic package %s: results must be a pure function of (config, seed); waive execution-only instrumentation with //dosn:wallclock <why>", pass.Pkg.Name())
			case "math/rand":
				if name := sel.Sel.Name; globalRandFuncs[name] {
					pass.Reportf(call.Pos(), "rand.%s draws from the global math/rand source; use a *rand.Rand seeded from the config", name)
				}
			}
			if what := seedingCall(pass, sel); what != "" && len(call.Args) == 1 && !mentionsSeed(call.Args[0]) {
				pass.Reportf(call.Pos(), "%s argument does not derive from a seed: plumb a Config/seed parameter (an identifier containing \"seed\") instead of %s", what, exprText(call.Args[0]))
			}
			if fn := obsReadback(pass, sel); fn != "" {
				pass.Reportf(call.Pos(), "obs.%s reads execution telemetry (wall-clock derived) inside deterministic package %s: write-only instrumentation is fine, reading it back is not", fn, pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}

// seedingCall names the call when sel starts a math/rand stream from its
// argument — rand.NewSource(x) or mathrand.New(x), or Seed(x) on an explicit
// *rand.Rand, *mathrand.Rand or *mathrand.Source, which restarts a
// generator in place exactly as a new one would — and returns "" for
// anything else.
func seedingCall(pass *Pass, sel *ast.SelectorExpr) string {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	switch fn.FullName() {
	case "math/rand.NewSource":
		return "rand.NewSource"
	case "(*math/rand.Rand).Seed":
		return "(*rand.Rand).Seed"
	case "dosn/internal/mathrand.New":
		return "mathrand.New"
	case "(*dosn/internal/mathrand.Rand).Seed":
		return "(*mathrand.Rand).Seed"
	case "(*dosn/internal/mathrand.Source).Seed":
		return "(*mathrand.Source).Seed"
	}
	return ""
}

// obsReadback returns the called function's name when sel resolves to a
// telemetry-reading function or method of an execution-only package
// (internal/obs, internal/obs/prof), "" otherwise. Resolution goes through
// the type checker, so both package functions (obs.ReadMem) and methods on
// obs types (counter.Value, collector.Report) are caught regardless of how
// the value reached the deterministic package.
func obsReadback(pass *Pass, sel *ast.SelectorExpr) string {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if !executionOnlyPkgs[pathBase(fn.Pkg().Path())] || !obsReadbackFuncs[fn.Name()] {
		return ""
	}
	return fn.Name()
}

// mentionsSeed reports whether any identifier in expr contains "seed",
// case-insensitive — the naming convention for deterministic seed plumbing
// (cfg.Seed, seed, id.seed(rep), mix(cfg.Seed, ...)).
func mentionsSeed(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "seed") {
			found = true
			return false
		}
		return !found
	})
	return found
}

// exprText renders a short description of an expression for messages.
func exprText(expr ast.Expr) string {
	if id := rootIdent(expr); id != nil {
		return "an expression over " + id.Name
	}
	return "this expression"
}
