// Package deadline enforces the bounded-I/O rules hardened after PR 5's
// second review pass, which found an unbounded net.Dial held under a
// session mutex (a blackholed host could wedge the abort path for the
// kernel's ~2-minute connect timeout) and an unclamped frame-write
// deadline (a short-deadline request could hold a shared connection for
// the full transport timeout). Mechanized rules:
//
//  1. net.Dial is forbidden: connect through net.DialTimeout or
//     (*net.Dialer).DialContext so a dead host fails fast.
//  2. A write to a deadline-capable connection — conn.Write, or a framed
//     write (wire.WriteFrame, (*wire.Buffer).WriteFrame) handed the conn —
//     must be preceded, in the same function, by a
//     SetDeadline/SetWriteDeadline call. Functions
//     that write on connections whose deadline a caller already set carry
//     a //lint:allow deadline directive naming that caller.
//  3. Outside internal/rpc, nothing dials (net.Dial*, a net.Dialer),
//     accepts (a listener's Accept), sets a connection's deadlines or reads
//     frames off one (wire.NewFrameReader): the three wire services share
//     one transport (DESIGN.md "internal/rpc"), and a fourth cannot grow
//     back beside it. Rules 1 and 2 are what hold inside it.
//
// Clamping the deadline to the caller's context remains a review concern
// (it is not generally decidable syntactically); rule 2 guarantees the
// deadline exists at all, which is the failure mode that wedges.
package deadline

import (
	"go/ast"
	"go/types"
	"strings"

	"txcache/internal/analysis"
)

// Analyzer is the deadline pass.
var Analyzer = &analysis.Analyzer{
	Name: "deadline",
	Doc: "every dial is bounded (DialTimeout/DialContext), every conn write " +
		"is preceded by a write deadline in the same function, and only " +
		"internal/rpc handles connections",
	Run: run,
}

// rpcPkg is the transport's package; it and the packages under it may
// handle connections.
const rpcPkg = "txcache/internal/rpc"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc scans one function body (and, recursively, each function
// literal as its own deadline scope) in source order.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	sawDeadline := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFunc(pass, n.Body) // separate scope: deadlines do not leak in
			return false
		case *ast.CallExpr:
			checkCall(pass, n, &sawDeadline)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// transport says what rule 3's call does to a connection, or returns "" for
// any other call.
func transport(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) string {
	name := fn.Name()
	switch {
	case fn.Pkg() != nil && fn.Pkg().Path() == "net" && strings.HasPrefix(name, "Dial"):
		return "a dial"
	case analysis.IsPkgFunc(fn, "txcache/internal/wire", "NewFrameReader"):
		return "a frame reader"
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	switch {
	case strings.HasPrefix(name, "Accept") && analysis.HasMethod(recv, "Addr") && analysis.HasMethod(recv, "Close"):
		return "an accept"
	case (name == "SetDeadline" || name == "SetReadDeadline" || name == "SetWriteDeadline") && isConnType(recv):
		return "a connection deadline"
	}
	return ""
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, sawDeadline *bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	// Rule 3: no connection handling outside the transport.
	if pass.PkgPath != rpcPkg && !strings.HasPrefix(pass.PkgPath, rpcPkg+"/") {
		if what := transport(pass, call, fn); what != "" {
			pass.Reportf(call.Pos(),
				"%s outside internal/rpc; connections are handled there alone — go through rpc.Dial, Call, Send and Serve", what)
			return
		}
	}
	// Rule 1: unbounded dials.
	if analysis.IsPkgFunc(fn, "net", "Dial") {
		pass.Reportf(call.Pos(),
			"unbounded net.Dial; use net.DialTimeout or (*net.Dialer).DialContext so a blackholed host cannot wedge the caller")
		return
	}
	// wire.WriteFrame(conn, ...) and (*wire.Buffer).WriteFrame(conn): a
	// framed write, function or method, whose first argument is a
	// deadline-capable conn is a conn write.
	if fn.Name() == "WriteFrame" && len(call.Args) > 0 &&
		isConnType(pass.TypesInfo.TypeOf(call.Args[0])) {
		reportUnboundedWrite(pass, call, sawDeadline)
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return
	}
	recv := ast.Unparen(call.Fun)
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recvType := pass.TypesInfo.TypeOf(sel.X)
	switch fn.Name() {
	case "SetDeadline", "SetWriteDeadline":
		if isConnType(recvType) {
			*sawDeadline = true
		}
	case "Write":
		if isConnType(recvType) {
			reportUnboundedWrite(pass, call, sawDeadline)
		}
	}
}

func reportUnboundedWrite(pass *analysis.Pass, call *ast.CallExpr, sawDeadline *bool) {
	if *sawDeadline {
		return
	}
	pass.Reportf(call.Pos(),
		"conn write with no preceding SetWriteDeadline/SetDeadline in this function; a peer that stops reading wedges this goroutine")
}

// isConnType reports whether t is a network connection for deadline
// purposes: it has the SetWriteDeadline method and is not an *os.File
// (files have deadline methods too, but file writes do not hang on a
// peer's TCP window).
func isConnType(t types.Type) bool {
	if t == nil || !analysis.HasMethod(t, "SetWriteDeadline") {
		return false
	}
	if named := analysis.NamedOf(t); named != nil && named.Obj().Pkg() != nil {
		if named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File" {
			return false
		}
	}
	return true
}
