// Package lockorder mechanizes the repo's documented lock hierarchies:
//
//   - internal/db: catalog → table is the global order (Engine.catMu is
//     never acquired while a Table.mu is held — internal/db/catalog.go),
//     and multi-table lock sets are only ever taken through tableLockSet,
//     which sorts by table name (internal/db/tx.go). Two direct Table.mu
//     acquisitions in one function is therefore a finding even when the
//     hand-written order happens to be sorted today.
//
//   - internal/cacheserver: streamMu → shard.mu → hist.mu
//     (internal/cacheserver/server.go documents streamMu → hist.mu and
//     shard.mu → hist.mu; ApplyInvalidation visits every shard under
//     streamMu, fixing stream before shard). hist.mu is innermost:
//     acquiring anything while holding it is a finding.
//
//   - internal/mvcc has no lock of its own: a table's version store is
//     guarded by Table.mu alone, and a commit writes it in one critical
//     section (DESIGN.md "The pipelined commit path"). So the package
//     imports neither sync nor sync/atomic, and a second lock under the
//     table's cannot grow back.
//
// The scan is intra-procedural and source-ordered: helper functions that
// acquire a class internally (tableLockSet.lock, histIndex.add,
// ...) are modelled from the table below, so "holds table, calls something
// that takes the catalog lock" is caught even though the Lock call is in
// the callee. Branch-dependent unlock patterns can defeat the linear scan
// (it errs toward missing, never toward inventing, a violation).
package lockorder

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"txcache/internal/analysis"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforce documented lock orders: db catalog→table (multi-table via tableLockSet only), " +
		"cacheserver streamMu→shard.mu→hist.mu; mvcc takes no lock of its own",
	Run: run,
}

// unlockedPkg relies on its caller's lock (Table.mu) and may import nothing
// that makes one.
const unlockedPkg = "txcache/internal/mvcc"

// class is a lock class in one of the documented hierarchies.
type class int

const (
	catalog class = iota
	table
	shard
	hist
	stream
	nclass
)

var className = [nclass]string{"catalog (Engine.catMu)", "table (Table.mu)", "shard (shard.mu)", "hist (histIndex.mu)", "stream (Server.streamMu)"}

// fieldClass maps a mutex field to its class.
var fieldClass = map[[3]string]class{
	{"txcache/internal/db", "Engine", "catMu"}:             catalog,
	{"txcache/internal/db", "Table", "mu"}:                 table,
	{"txcache/internal/cacheserver", "shard", "mu"}:        shard,
	{"txcache/internal/cacheserver", "histIndex", "mu"}:    hist,
	{"txcache/internal/cacheserver", "Server", "streamMu"}: stream,
}

// allowed[h][c] reports that acquiring class c while holding class h is
// part of the documented order. Everything else — including h == c, which
// either self-deadlocks (Mutex) or bypasses the sorted lockSet discipline
// (two Table.mu sites) — is a violation.
var allowed = [nclass][nclass]bool{
	catalog: {table: true},
	stream:  {shard: true, hist: true},
	shard:   {hist: true},
}

// helperKind describes what a known helper does with a class.
type helperKind int

const (
	acquires helperKind = iota
	releases
	// selfContained helpers acquire and release the class internally; the
	// order check applies at the call site but held state is unchanged.
	selfContained
)

// helpers models the repo's lock-wrapping functions and methods, keyed by
// (package, receiver-or-empty, name).
var helpers = map[[3]string]struct {
	class class
	kind  helperKind
}{
	{"txcache/internal/db", "Engine", "lockSetFor"}:             {catalog, selfContained},
	{"txcache/internal/db", "tableLockSet", "rlock"}:            {table, acquires},
	{"txcache/internal/db", "tableLockSet", "lock"}:             {table, acquires},
	{"txcache/internal/db", "tableLockSet", "runlock"}:          {table, releases},
	{"txcache/internal/db", "tableLockSet", "unlock"}:           {table, releases},
	{"txcache/internal/cacheserver", "Server", "eachShard"}:     {shard, selfContained},
	{"txcache/internal/cacheserver", "histIndex", "add"}:        {hist, selfContained},
	{"txcache/internal/cacheserver", "histIndex", "firstMatch"}: {hist, selfContained},
	{"txcache/internal/cacheserver", "histIndex", "raiseFloor"}: {hist, selfContained},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if pass.PkgPath == unlockedPkg && (path == "sync" || strings.HasPrefix(path, "sync/")) {
				pass.Reportf(imp.Pos(), "internal/mvcc imports %s; its store is guarded by Table.mu alone, and a lock of its own is a second critical section under the table's", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// event is one lock operation found in source order.
type event struct {
	class  class
	kind   helperKind
	pos    ast.Node
	defer_ bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []event
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate lock scope, scanned by run
		case *ast.DeferStmt:
			if ev, ok := classify(pass, n.Call); ok {
				ev.defer_ = true
				events = append(events, ev)
			}
			return false
		case *ast.CallExpr:
			if ev, ok := classify(pass, n); ok {
				events = append(events, ev)
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)

	// Linear replay: deferred releases never fire during the scan (they
	// run at function exit), deferred acquires are impossible shapes we
	// simply record as acquires.
	var held [nclass]int
	for _, ev := range events {
		switch ev.kind {
		case releases:
			if !ev.defer_ && held[ev.class] > 0 {
				held[ev.class]--
			}
		case acquires, selfContained:
			for h := class(0); h < nclass; h++ {
				if held[h] == 0 {
					continue
				}
				if h == ev.class && ev.kind == acquires {
					pass.Reportf(ev.pos.Pos(),
						"acquiring %s while already holding %s: %s",
						className[ev.class], className[h], sameClassAdvice(ev.class))
				} else if h != ev.class && !allowed[h][ev.class] {
					pass.Reportf(ev.pos.Pos(),
						"acquiring %s while holding %s violates the documented lock order (%s)",
						className[ev.class], className[h], orderDoc(ev.class, h))
				}
			}
			if ev.kind == acquires {
				held[ev.class]++
			}
		}
	}
}

func sameClassAdvice(c class) string {
	if c == table {
		return "multi-table lock sets must go through tableLockSet, which sorts by table name"
	}
	return "re-acquiring the same class self-deadlocks or hides an ordering assumption"
}

func orderDoc(c, h class) string {
	switch {
	case c == catalog || h == catalog || c == table || h == table:
		return "catalog → table, see internal/db/catalog.go"
	default:
		return "streamMu → shard.mu → hist.mu, see internal/cacheserver/server.go"
	}
}

// classify resolves a call to a lock event: a direct Lock/RLock/Unlock/
// RUnlock on a classed mutex field, or a modelled helper.
func classify(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return event{}, false
		}
		ref, ok := analysis.FieldOf(pass.TypesInfo, inner)
		if !ok {
			return event{}, false
		}
		c, ok := fieldClass[[3]string{ref.OwnerPkg, ref.OwnerName, ref.Field.Name()}]
		if !ok {
			return event{}, false
		}
		kind := acquires
		if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
			kind = releases
		}
		return event{class: c, kind: kind, pos: call}, true
	}
	// Modelled helpers: resolve receiver type + method name.
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return event{}, false
	}
	if named := receiverNamed(fn); named != "" {
		if h, ok := helpers[[3]string{fn.Pkg().Path(), named, fn.Name()}]; ok {
			return event{class: h.class, kind: h.kind, pos: call}, true
		}
	}
	return event{}, false
}

// receiverNamed returns the name of fn's receiver's named type, or "" for
// package-level functions.
func receiverNamed(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	named := analysis.NamedOf(sig.Recv().Type())
	if named == nil {
		return ""
	}
	return named.Obj().Name()
}
