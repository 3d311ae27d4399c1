package txcache_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"txcache/internal/analysis"
	"txcache/internal/analysis/load"
	"txcache/internal/analysis/passes/atomicfield"
	"txcache/internal/analysis/passes/ctxflow"
	"txcache/internal/analysis/passes/deadline"
	"txcache/internal/analysis/passes/lockorder"
	"txcache/internal/analysis/passes/scratchreturn"
	"txcache/internal/analysis/passes/walltime"
)

// benchPkg is the benchmark's package: a nested module (replace txcache =>
// ../) that the root module's ./... never lists.
const benchPkg = "txcache/benchmark"

// loadTree type-checks, once for every test of this package that reads it,
// the root module's non-test code and txcache/benchmark in one type
// universe: listed from benchmark/, "txcache/..." names the root module
// through its replace directive.
var loadTree = sync.OnceValues(func() (*load.Program, error) {
	return load.Load("benchmark", ".", "txcache/...")
})

// tree returns the shared load, or fails t.
func tree(t *testing.T) *load.Program {
	t.Helper()
	prog, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// rel is p with its file named relative to the module root.
func rel(p token.Position) token.Position {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = filepath.ToSlash(rel)
		}
	}
	return p
}

// lintSuite is the full analyzer suite, in report order.
var lintSuite = []*analysis.Analyzer{
	lockorder.Analyzer,
	ctxflow.Analyzer,
	walltime.Analyzer,
	deadline.Analyzer,
	atomicfield.Analyzer,
	scratchreturn.Analyzer,
}

// maxSuppressed is how many findings //lint:allow may excuse across both
// modules. It may only fall (ROADMAP item 12).
const maxSuppressed = 10

// TestLint runs the repo's invariant analyzers (internal/analysis; DESIGN.md
// "Enforced invariants") over every package of the root module and over the
// benchmark, and fails on any finding that no reasoned //lint:allow
// directive excuses, on any malformed or unused directive, and on any of the
// refusals below. The excused findings are its -v log.
func TestLint(t *testing.T) {
	prog := tree(t)
	if p := prog.ByPath[benchPkg]; p == nil || !p.Root {
		t.Fatalf("the load lacks %s", benchPkg)
	}
	out, err := exec.Command(goCommand(), "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	for _, path := range strings.Fields(string(out)) {
		if p := prog.ByPath[path]; p == nil || !p.Root {
			t.Errorf("go list ./... names %s, which the load did not check", path)
		}
	}

	res, err := analysis.Run(prog.Fset, prog.Units(), lintSuite, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Suppressed {
		f.Position = rel(f.Position)
		t.Logf("%s [allowed: %s]", f, f.Reason)
	}
	for _, f := range slices.Concat(res.Findings, res.DirectiveErrors) {
		f.Position = rel(f.Position)
		t.Error(f)
	}
	if n := len(res.Suppressed); n > maxSuppressed {
		t.Errorf("%d findings suppressed, at most %d may be", n, maxSuppressed)
	}

	for _, pkg := range prog.Packages {
		if !pkg.Root {
			continue
		}
		for _, f := range pkg.Files {
			for _, pos := range refused(pkg.ImportPath, f) {
				t.Errorf("%s: %s", rel(prog.Fset.Position(pos)), refusal)
			}
		}
	}
	for _, c := range []struct{ pkg, src string }{
		{"txcache/cmd/txcached", "package main\nfunc f(n interface{ SetHorizon(uint64) }) { n.SetHorizon(7) }"},
		{"txcache/internal/core", "package core\nfunc f(n interface{ ApplyInvalidation(int) }) { n.ApplyInvalidation(1) }"},
		{"txcache/internal/core", "package core\nfunc f(e struct{ through uint64 }) uint64 { return e.through }"},
		{"txcache/internal/core", "package core\nfunc f(genSnap, hi uint64) uint64 { genSnap = min(genSnap, hi); return genSnap }"},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "snippet.go", c.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if len(refused(c.pkg, f)) == 0 {
			t.Errorf("refused lets this through in %s:\n%s", c.pkg, c.src)
		}
	}
}

// refusal says why refused's shapes are refused.
const refusal = "a second statement of how far a value is proven is back; a frame " +
	"carries one proven interval and an open flag (put derives genSnap from it), and a " +
	"node's floor and horizon come from the stream it has seen (ConsumeStream, the TCP " +
	"push), never from a caller"

// refused returns where f, a file of package pkg, brings back a way to serve
// a value nobody checked (DESIGN.md "Still-valid composition" and "Crossing
// a gap"): an operator-seeded node horizon (SetHorizon) outside the
// benchmark; a message handed to a node around its stream (a call of
// ApplyInvalidation) outside internal/cacheserver and the benchmark; and in
// internal/core, a second "how far was this checked" field (.through) or
// put-time arithmetic that patches one in (genSnap = min(...)).
func refused(pkg string, f *ast.File) []token.Pos {
	var out []token.Pos
	core := pkg == "txcache/internal/core"
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "SetHorizon" && pkg != benchPkg {
				out = append(out, n.Pos())
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ApplyInvalidation" &&
				pkg != "txcache/internal/cacheserver" && pkg != benchPkg {
				out = append(out, n.Pos())
			}
		case *ast.SelectorExpr:
			if core && n.Sel.Name == "through" {
				out = append(out, n.Sel.Pos())
			}
		case *ast.AssignStmt:
			if !core || n.Tok != token.ASSIGN {
				break
			}
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					lhs = sel.Sel
				}
				id, _ := lhs.(*ast.Ident)
				call, _ := n.Rhs[min(i, len(n.Rhs)-1)].(*ast.CallExpr)
				if id != nil && id.Name == "genSnap" && call != nil {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "min" {
						out = append(out, n.Pos())
					}
				}
			}
		}
		return true
	})
	return out
}
