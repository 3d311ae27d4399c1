// Package ctxflow enforces the context-first API discipline from PR 5: a
// function that receives a context.Context threads it to its callees, and
// library code under internal/ never mints fresh root contexts that detach
// work from its caller: a round trip on a bare context.Background() with
// no deadline lets a wedged peer hang its caller forever.
//
// Two idioms are recognized as fine without a directive:
//
//   - nil-defaulting at API boundaries:  if ctx == nil { ctx = context.Background() }
//   - bounded detachment in context-free functions:
//     context.WithTimeout(context.Background(), opTimeout)
//     (dbnet's PinLatest/Pin/Unpin, the pincushion's Register: deliberately
//     detached from a possibly-cancelled caller, but never unbounded)
//
// Everything else — a bare Background/TODO in library code, or any
// Background/TODO (even a bounded one) inside a function that was handed a
// ctx — is a finding. True boundary roots (a server's hard-cancel root, a
// deprecated compatibility wrapper) carry //lint:allow ctxflow with the
// reason.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"txcache/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "library code must thread the caller's context.Context; " +
		"context.Background/TODO only at annotated boundaries",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.PkgPath, "txcache/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		w := &walker{pass: pass}
		w.walk(f)
	}
	return nil
}

// walker tracks the parent node stack, from which the exemption rules read
// both expression context and the chain of enclosing functions.
type walker struct {
	pass    *analysis.Pass
	parents []ast.Node
}

func (w *walker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			w.parents = w.parents[:len(w.parents)-1]
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.checkCall(call)
		}
		w.parents = append(w.parents, n)
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr) {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	name := fn.Name()
	if name != "Background" && name != "TODO" {
		return
	}
	// Exemption 1: the nil-defaulting idiom, ctx = context.Background()
	// directly under if ctx == nil. This is how exported entry points
	// tolerate a nil context without every callee re-checking.
	if w.isNilDefault(call) {
		return
	}
	// A function that was handed a context must use it: minting a root
	// here either drops the caller's cancellation (bare) or detaches work
	// the caller thinks it owns (bounded). Both are findings.
	if ctxParam := enclosingCtxParam(w.pass.TypesInfo, w.parents); ctxParam != "" {
		w.pass.Reportf(call.Pos(),
			"context.%s inside a function that receives %q; thread the caller's context",
			name, ctxParam)
		return
	}
	// Exemption 2: bounded detachment — Background as the immediate parent
	// argument of WithTimeout/WithDeadline in a context-free function.
	if w.isBoundedRoot(call) {
		return
	}
	w.pass.Reportf(call.Pos(),
		"context.%s in internal library code; accept a ctx from the caller or annotate the boundary with //lint:allow ctxflow <reason>",
		name)
}

// isNilDefault reports whether call is the RHS of `X = context.Background()`
// (or TODO) with the nearest enclosing if-statement condition `X == nil`.
func (w *walker) isNilDefault(call *ast.CallExpr) bool {
	if len(w.parents) == 0 {
		return false
	}
	assign, ok := w.parents[len(w.parents)-1].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	for i := len(w.parents) - 1; i >= 0; i-- {
		ifs, ok := w.parents[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		bin, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || bin.Op.String() != "==" {
			return false
		}
		x, xok := bin.X.(*ast.Ident)
		y, yok := bin.Y.(*ast.Ident)
		if xok && x.Name == lhs.Name && yok && y.Name == "nil" {
			return true
		}
		if yok && y.Name == lhs.Name && xok && x.Name == "nil" {
			return true
		}
		return false
	}
	return false
}

// isBoundedRoot reports whether call is the context argument of
// context.WithTimeout or context.WithDeadline.
func (w *walker) isBoundedRoot(call *ast.CallExpr) bool {
	if len(w.parents) == 0 {
		return false
	}
	outer, ok := w.parents[len(w.parents)-1].(*ast.CallExpr)
	if !ok || len(outer.Args) == 0 || ast.Unparen(outer.Args[0]) != call {
		return false
	}
	fn := analysis.CalleeFunc(w.pass.TypesInfo, outer)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "WithTimeout" || fn.Name() == "WithDeadline"
}

// enclosingCtxParam returns the name of a context.Context parameter of the
// innermost enclosing function (FuncDecl or FuncLit on the parent stack)
// that has one, or "" if none does. Outer functions count too: a closure
// inside a ctx-receiving function has that ctx lexically in scope.
func enclosingCtxParam(info *types.Info, parents []ast.Node) string {
	for i := len(parents) - 1; i >= 0; i-- {
		ft := analysis.FuncType(parents[i])
		if ft == nil || ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			if !isContextType(info.TypeOf(field.Type)) {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					return name.Name
				}
			}
		}
	}
	return ""
}

func isContextType(t types.Type) bool {
	named := analysis.NamedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
