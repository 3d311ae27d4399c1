// Package walltime forbids raw wall-clock reads in the repo's seeded,
// deterministic paths. The RUBiS loader and the wire codecs must produce
// identical output for identical seeds — an early rubis.Load flake was
// exactly a per-call time.Now() in a seeded path that broke same-seed
// determinism whenever two loads straddled a second boundary. Code in scope
// reads time through an internal/clock.Clock (or a value threaded from one);
// genuine wall-clock measurement sites carry a //lint:allow walltime
// directive saying why wall time is the point.
package walltime

import (
	"go/ast"
	"strings"

	"txcache/internal/analysis"
)

// Analyzer is the walltime pass.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid raw time.Now/time.Since/time.Until in seeded/deterministic paths; " +
		"thread an internal/clock.Clock instead",
	Run: run,
}

// scope lists the deterministic surfaces. The data-structure packages
// (btree, mvcc, interval, invalidation, consistent, sql, wire) are ordered by
// logical timestamps and must stay wall-clock-free; rubis generates seeded
// datasets and seeded workloads.
var scope = map[string]bool{
	"txcache/internal/rubis":        true,
	"txcache/internal/wire":         true,
	"txcache/internal/btree":        true,
	"txcache/internal/mvcc":         true,
	"txcache/internal/interval":     true,
	"txcache/internal/invalidation": true,
	"txcache/internal/consistent":   true,
	"txcache/internal/sql":          true,
}

// banned are the raw wall-clock entry points in package time.
var banned = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	if !scope[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"raw time.%s in a seeded/deterministic path %s; read time through an internal/clock.Clock",
				fn.Name(), shortPath(pass.PkgPath))
			return true
		})
	}
	return nil
}

func shortPath(p string) string {
	return "(" + strings.TrimPrefix(p, "txcache/") + ")"
}
