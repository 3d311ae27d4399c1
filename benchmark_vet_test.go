package txcache_test

import (
	"context"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"txcache/internal/analysis/load"
)

// goCommand is the go command of the toolchain running the tests.
func goCommand() string {
	bin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(bin); err != nil {
		return "go"
	}
	return bin
}

// TestBenchmarkCompiles vets the benchmark against this tree. benchmark/ is a
// nested module the root's ./... never compiles, so without this a change to
// a symbol it uses would pass every other test and break only the benchmark's
// own build. go vet type-checks its test files' fakes too. The environment is
// the one benchmark/run.sh builds in: no module proxy, a read-only module
// graph and the local toolchain.
func TestBenchmarkCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command on the benchmark module")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, goCommand(), "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=readonly", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}

// keptMarker tags a declaration that exists only because benchmark/ compiles
// against it (ROADMAP item 1(a)).
const keptMarker = "kept for benchmark/"

// TestKeptForBenchmarkIsUsed holds the kept list to what it claims: every
// marker in a non-test file outside benchmark/ sits on a declaration (a
// func, a method, an interface method, a struct field or a type), on its
// first line or in its doc comment, and benchmark/ uses what it declares.
// A marker on anything else, or on a declaration the benchmark no longer
// uses, keeps code for nobody.
func TestKeptForBenchmarkIsUsed(t *testing.T) {
	prog := tree(t)
	bench := usesOf(prog, true)
	marks := keptMarks(prog)
	for _, m := range marks {
		switch {
		case m.obj == nil:
			t.Errorf("%s: marker sits on no func, method, field or type", rel(prog.Fset.Position(m.pos)))
		case !bench.has(m.obj):
			t.Errorf("%s: %s is kept for benchmark/, which never uses it", rel(prog.Fset.Position(m.pos)), m.obj.Name())
		}
	}
	if len(marks) == 0 {
		t.Fatal("no marker found: the walk looked in the wrong place")
	}
}

// keptMark is one kept marker: where it is, and what the declaration it
// sits on declares (nil if none).
type keptMark struct {
	pos token.Pos
	obj types.Object
}

// keptMarks returns the kept markers of the loaded non-test files outside
// benchmark/.
func keptMarks(prog *load.Program) []keptMark {
	var out []keptMark
	for _, pkg := range prog.Packages {
		if !pkg.Root || pkg.ImportPath == benchPkg {
			continue
		}
		for _, f := range pkg.Files {
			out = append(out, fileKeptMarks(prog.Fset, pkg.Info, f)...)
		}
	}
	return out
}

// fileKeptMarks finds f's kept markers and the declaration each sits on:
// the first one that starts on the marker's line or whose doc comment holds
// it.
func fileKeptMarks(fset *token.FileSet, info *types.Info, f *ast.File) []keptMark {
	var out []keptMark
	decls := keptCandidates(f)
	for _, g := range f.Comments {
		for _, c := range g.List {
			if !strings.Contains(c.Text, keptMarker) {
				continue
			}
			var on *keptCandidate
			line := fset.Position(c.Pos()).Line
			for i, d := range decls {
				onLine := fset.Position(d.pos).Line == line
				if (onLine || d.doc == g) && (on == nil || d.pos < on.pos) {
					on = &decls[i]
				}
			}
			m := keptMark{pos: c.Pos()}
			if on != nil {
				m.obj = info.Defs[on.name]
			}
			out = append(out, m)
		}
	}
	return out
}

// keptCandidate is a declaration a marker may sit on: the name it declares,
// where it starts and its doc comment.
type keptCandidate struct {
	name *ast.Ident
	pos  token.Pos
	doc  *ast.CommentGroup
}

// keptCandidates lists f's funcs and methods, types, struct fields and
// interface methods; parameters and results are not among them.
func keptCandidates(f *ast.File) []keptCandidate {
	var out []keptCandidate
	fields := func(l *ast.FieldList) {
		for _, fd := range l.List {
			for _, n := range fd.Names {
				out = append(out, keptCandidate{n, fd.Pos(), fd.Doc})
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			out = append(out, keptCandidate{n.Name, n.Pos(), n.Doc})
		case *ast.GenDecl:
			for _, s := range n.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					doc := ts.Doc
					if n.Lparen == token.NoPos { // type T ..., not a group
						doc = n.Doc
					}
					out = append(out, keptCandidate{ts.Name, ts.Pos(), doc})
				}
			}
		case *ast.StructType:
			fields(n.Fields)
		case *ast.InterfaceType:
			fields(n.Methods)
		}
		return true
	})
	return out
}

// uses is what a set of files refers to: every object one of their
// identifiers or selectors resolves to, with the interface methods among
// them kept apart.
type uses struct {
	objs   map[types.Object]bool
	ifaces []*types.Func
}

// usesOf collects what the loaded non-test files refer to: benchmark/'s if
// bench, else those of every other package the load checked.
func usesOf(prog *load.Program, bench bool) *uses {
	u := &uses{objs: map[types.Object]bool{}}
	for _, pkg := range prog.Packages {
		if !pkg.Root || (pkg.ImportPath == benchPkg) != bench {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			u.add(obj)
		}
		for _, sel := range pkg.Info.Selections {
			u.add(sel.Obj())
		}
	}
	return u
}

// add records obj, the generic declaration for an instantiated one.
func (u *uses) add(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if u.objs[obj] {
		return
	}
	u.objs[obj] = true
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			u.ifaces = append(u.ifaces, fn)
		}
	}
}

// has reports whether u refers to obj: to obj itself, or, for a concrete
// method, to an interface method its type implements with it.
func (u *uses) has(obj types.Object) bool {
	if u.objs[obj] {
		return true
	}
	m, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	typ := recvType(m)
	if typ == nil || types.IsInterface(typ) {
		return false
	}
	for _, im := range u.ifaces {
		if im.Name() != m.Name() {
			continue
		}
		iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
		if !types.Implements(typ, iface) && !types.Implements(types.NewPointer(typ), iface) {
			continue
		}
		if got, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name()); got == m {
			return true
		}
	}
	return false
}

// recvType is m's receiver type, the element type of a pointer receiver, or
// nil if m is a function.
func recvType(m *types.Func) types.Type {
	recv := m.Signature().Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// exportAllow lists the exported declarations under internal/ that no
// non-test code uses, each with the reason it stays. It may only shrink:
// TestExportsHaveCallers fails on an entry that has gained a caller or is
// gone.
var exportAllow = map[string]string{
	"clock.Virtual.Advance":   "the virtual clock's test seam: only tests move time",
	"rubis.App.DoInteraction": "drives TestGoldenTrace's seeded interactions",
	"cacheserver.MissNone":    "names the zero MissKind, a hit",
}

// TestExportsHaveCallers holds every exported declaration in a non-test file
// under internal/ (internal/analysis and internal/rpc/rpctest aside, which
// serve the linter and tests) to a non-test use outside benchmark/: an
// identifier or selector that resolves to it, or, for a concrete method, to
// an interface method its type implements with it (fmt.Stringer's String
// and error's Error are always used). A declaration only benchmark/ uses
// carries the kept marker, or is a method implementing a marked interface
// method; anything else is on exportAllow with its reason. An export only
// tests call is surface nobody runs: delete it, or give it a caller.
func TestExportsHaveCallers(t *testing.T) {
	prog := tree(t)
	in, bench := usesOf(prog, false), usesOf(prog, true)
	for _, iface := range []types.Object{
		types.Universe.Lookup("error"),
		prog.ByPath["fmt"].Types.Scope().Lookup("Stringer"),
	} {
		in.add(iface.Type().Underlying().(*types.Interface).Method(0))
	}
	marked := &uses{objs: map[types.Object]bool{}}
	for _, m := range keptMarks(prog) {
		if m.obj != nil {
			marked.add(m.obj)
		}
	}

	seen := map[string]bool{}
	for _, pkg := range prog.Packages {
		short, ok := strings.CutPrefix(pkg.ImportPath, "txcache/internal/")
		if !pkg.Root || !ok || strings.HasPrefix(short, "analysis") || short == "rpc/rpctest" {
			continue
		}
		for _, f := range pkg.Files {
			for _, id := range exportedDecls(f) {
				obj := pkg.Info.Defs[id]
				key := short + "." + id.Name
				if fn, ok := obj.(*types.Func); ok && recvType(fn) != nil {
					key = short + "." + recvType(fn).(*types.Named).Obj().Name() + "." + id.Name
				}
				seen[key] = true
				_, allowed := exportAllow[key]
				used, benchUsed := in.has(obj), bench.has(obj)
				at := rel(prog.Fset.Position(id.Pos()))
				switch {
				case used && allowed:
					t.Errorf("%s: %s has a caller now; take it off exportAllow", at, key)
				case used || allowed:
				case benchUsed && marked.has(obj):
				case benchUsed:
					t.Errorf("%s: %s is used only by benchmark/ and tests; mark it %q", at, key, "// "+keptMarker+" (ROADMAP 1)")
				default:
					t.Errorf("%s: %s has no caller outside tests", at, key)
				}
			}
		}
	}
	for key := range exportAllow {
		if !seen[key] {
			t.Errorf("exportAllow names %s, which is not an exported declaration under internal/", key)
		}
	}
}

// exportedDecls returns the exported names f declares at package level:
// funcs, methods, types, vars and consts.
func exportedDecls(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return slices.DeleteFunc(out, func(id *ast.Ident) bool { return !id.IsExported() })
}
