package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// randConstructors are the math/rand package-level functions that build
// explicitly-seeded generators rather than touching the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// wallclockFuncs are the time package functions that read the wall clock.
var wallclockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// checkFile applies every in-scope rule to one file and returns the raw
// (pre-ignore-filtering) diagnostics.
func checkFile(pkg *Package, file *ast.File, cfg Config) []Diagnostic {
	numeric := cfg.isNumeric(pkg.Path)
	goAllowed := cfg.allowsGo(pkg.Path)
	var out []Diagnostic
	report := func(pos token.Pos, rule, format string, args ...any) {
		p := pkg.Fset.Position(pos)
		out = append(out, Diagnostic{
			File: p.Filename, Line: p.Line, Col: p.Column,
			Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := callee(pkg.Info, n); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "math/rand", "math/rand/v2":
					// R1: package-level math/rand functions draw from the
					// shared global source; methods on an injected *rand.Rand
					// and the explicit constructors are fine.
					if fn.Type().(*types.Signature).Recv() == nil && !randConstructors[fn.Name()] {
						report(n.Pos(), RuleGlobalRand,
							"call to global %s.%s; thread a seeded *rand.Rand instead", fn.Pkg().Path(), fn.Name())
					}
				case "time":
					// R2: wall-clock reads in the numeric core break run-to-run
					// comparability; timing belongs in internal/experiments and cmd.
					if numeric && fn.Type().(*types.Signature).Recv() == nil && wallclockFuncs[fn.Name()] {
						report(n.Pos(), RuleWallclock,
							"time.%s in deterministic numeric package %s; inject a clock from the caller", fn.Name(), pkg.Path)
					}
				}
			}
		case *ast.RangeStmt:
			// R3: map iteration order is randomized per run; any accumulation
			// over it is non-reproducible.
			if numeric {
				if t := pkg.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						report(n.Pos(), RuleMapRange,
							"range over map (%s) in numeric package; iterate sorted keys or a slice instead", t)
					}
				}
			}
		case *ast.GoStmt:
			// R4: worker-count invariance holds only because all parallelism
			// funnels through mpx's deterministic chunked pools.
			if !goAllowed {
				report(n.Pos(), RuleStrayGoroutine,
					"go statement outside internal/mpx; route parallelism through mpx.ParallelFor/ParallelChunks/Go")
			}
		case *ast.BinaryExpr:
			// R5: exact float comparison is almost never what numeric code
			// means, and where it is (duplicate detection on untouched inputs)
			// the ignore comment documents that.
			if numeric && (n.Op == token.EQL || n.Op == token.NEQ) {
				if isFloat(pkg.Info.TypeOf(n.X)) && isFloat(pkg.Info.TypeOf(n.Y)) {
					report(n.Pos(), RuleFloatEq,
						"floating-point %s comparison; use a tolerance or justify with an ignore", n.Op)
				}
			}
		case *ast.ExprStmt:
			// R6: a dropped error in the numeric core usually means a dropped
			// Cholesky failure — the result silently stops being trustworthy.
			if numeric {
				if call, ok := unparen(n.X).(*ast.CallExpr); ok {
					if t := pkg.Info.TypeOf(call); t != nil && finalIsError(t) {
						report(n.Pos(), RuleUncheckedError,
							"call discards its error result; handle it or assign it explicitly")
					}
				}
			}
		}
		return true
	})
	return out
}

// callee resolves the called package-level function or method, or nil for
// builtins, conversions, and indirect calls through function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (float32/float64, including named types and untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// finalIsError reports whether the call result type t ends in an error.
func finalIsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return isErrorType(t)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}
