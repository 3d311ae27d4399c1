package txcache_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
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
// first line or in its doc comment, and the name it declares appears as an
// identifier in benchmark/. A marker on anything else, or on a name the
// benchmark no longer uses, keeps code for nobody.
func TestKeptForBenchmarkIsUsed(t *testing.T) {
	used := benchIdents(t)
	fset := token.NewFileSet()
	markers := 0
	for _, sf := range sourceFiles(t, fset) {
		for _, m := range keptMarks(fset, sf.f) {
			markers++
			switch {
			case m.name == "":
				t.Errorf("%s: marker sits on no func, method, field or type", fset.Position(m.pos))
			case !used[m.name]:
				t.Errorf("%s: %s is kept for benchmark/, which never names it", fset.Position(m.pos), m.name)
			}
		}
	}
	if markers == 0 {
		t.Fatal("no marker found: the walk looked in the wrong place")
	}
}

// benchIdents returns every identifier benchmark/'s sources name.
func benchIdents(t *testing.T) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	bench, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil || len(bench) == 0 {
		t.Fatalf("no benchmark sources: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range bench {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	}
	return used
}

// srcFile is one parsed non-test Go file of the module outside benchmark/.
type srcFile struct {
	path string // slash-separated, relative to the module root
	f    *ast.File
}

// sourceFiles parses, with their comments, the module's non-test Go files
// outside benchmark/, testdata and dot directories.
func sourceFiles(t *testing.T, fset *token.FileSet) []srcFile {
	t.Helper()
	var out []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		out = append(out, srcFile{filepath.ToSlash(path), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// keptMark is one kept marker: where it is, and the name and position of
// the declaration it sits on (name "" if none).
type keptMark struct {
	pos  token.Pos
	name string
	at   token.Pos
}

// keptMarks finds f's kept markers and the declaration each sits on: the
// first one that starts on the marker's line or whose doc comment holds it.
func keptMarks(fset *token.FileSet, f *ast.File) []keptMark {
	var out []keptMark
	decls := keptCandidates(f)
	for _, g := range f.Comments {
		for _, c := range g.List {
			if !strings.Contains(c.Text, keptMarker) {
				continue
			}
			m := keptMark{pos: c.Pos()}
			line := fset.Position(c.Pos()).Line
			for _, d := range decls {
				onLine := fset.Position(d.pos).Line == line
				if (onLine || d.doc == g) && (m.name == "" || d.pos < m.at) {
					m.name, m.at = d.name, d.pos
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// keptCandidate is a declaration a marker may sit on: the name it declares,
// where it starts and its doc comment.
type keptCandidate struct {
	name string
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
				out = append(out, keptCandidate{n.Name, fd.Pos(), fd.Doc})
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			out = append(out, keptCandidate{n.Name.Name, n.Pos(), n.Doc})
		case *ast.GenDecl:
			for _, s := range n.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					doc := ts.Doc
					if n.Lparen == token.NoPos { // type T ..., not a group
						doc = n.Doc
					}
					out = append(out, keptCandidate{ts.Name.Name, ts.Pos(), doc})
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

// exportAllow lists the exported declarations under internal/ that no
// non-test code names, each with the reason it stays. It may only shrink:
// TestExportsHaveCallers fails on an entry that has gained a caller or is
// gone.
var exportAllow = map[string]string{
	"clock.Virtual.Advance":   "the virtual clock's test seam: only tests move time",
	"rubis.App.DoInteraction": "drives TestGoldenTrace's seeded interactions",
	"cacheserver.MissNone":    "names the zero MissKind, a hit",
}

// TestExportsHaveCallers holds every exported declaration in a non-test file
// under internal/ (internal/analysis and internal/rpc/rpctest aside, which
// serve the linter and tests) to a non-test caller. A package-level name is
// used if it appears bare in its own package's non-test files, or as
// pkg.Name in any non-test file outside benchmark/; a method is used if any
// non-test selector or interface method has its name. A name only
// benchmark/ uses carries the kept marker, and anything else is on
// exportAllow with its reason. An export only tests call is surface nobody
// runs: delete it, or give it a caller.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := sourceFiles(t, fset)

	pkgName := map[string]string{} // package dir → declared name
	for _, sf := range files {
		pkgName[path.Dir(sf.path)] = sf.f.Name.Name
	}
	in, bench := newUses(), newUses()
	marked := map[token.Pos]bool{} // declarations carrying the kept marker
	for _, sf := range files {
		in.add(sf, pkgName)
		for _, m := range keptMarks(fset, sf.f) {
			marked[m.at] = true
		}
	}
	benchFiles, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil || len(benchFiles) == 0 {
		t.Fatalf("no benchmark sources: %v", err)
	}
	for _, p := range benchFiles {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		bench.add(srcFile{filepath.ToSlash(p), f}, pkgName)
	}

	seen := map[string]bool{}
	check := func(name, key string, used, benchUsed bool, at token.Pos) {
		if !ast.IsExported(name) {
			return
		}
		seen[key] = true
		_, allowed := exportAllow[key]
		switch {
		case used && allowed:
			t.Errorf("%s: %s has a caller now; take it off exportAllow", fset.Position(at), key)
		case used || allowed:
		case benchUsed && marked[at]:
		case benchUsed:
			t.Errorf("%s: %s is used only by benchmark/ and tests; mark it %q", fset.Position(at), key, "// "+keptMarker+" (ROADMAP 1)")
		default:
			t.Errorf("%s: %s has no caller outside tests", fset.Position(at), key)
		}
	}
	for _, sf := range files {
		dir := path.Dir(sf.path)
		if !strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "internal/analysis") || dir == "internal/rpc/rpctest" {
			continue
		}
		short := strings.TrimPrefix(dir, "internal/")
		pkgUsed := func(u uses, name string) bool { return u.bare[dir][name] || u.qualified[dir+"."+name] }
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name.Name, short+"."+d.Name.Name, pkgUsed(in, d.Name.Name), pkgUsed(bench, d.Name.Name), d.Pos())
					continue
				}
				recv := d.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				typ := recv.(*ast.Ident).Name // no receiver under internal/ is generic
				check(d.Name.Name, short+"."+typ+"."+d.Name.Name, in.selected[d.Name.Name], bench.selected[d.Name.Name], d.Pos())
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						check(s.Name.Name, short+"."+s.Name.Name, pkgUsed(in, s.Name.Name), pkgUsed(bench, s.Name.Name), s.Pos())
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(n.Name, short+"."+n.Name, pkgUsed(in, n.Name), pkgUsed(bench, n.Name), n.Pos())
						}
					}
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

// uses is what a set of files names: each package's bare identifiers, every
// pkg.Name by the package's directory, and every selector and
// interface-method name.
type uses struct {
	bare      map[string]map[string]bool // package dir → identifiers used bare
	qualified map[string]bool            // "dir.Name" for each pkg.Name
	selected  map[string]bool
}

func newUses() uses {
	return uses{map[string]map[string]bool{}, map[string]bool{}, map[string]bool{}}
}

// add records what sf names. pkgName maps a package directory to its
// declared name, the local name of an import without one of its own.
func (u uses) add(sf srcFile, pkgName map[string]string) {
	dir := path.Dir(sf.path)
	if u.bare[dir] == nil {
		u.bare[dir] = map[string]bool{}
	}
	imports := map[string]string{} // local name → package dir
	for _, im := range sf.f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		d, ok := strings.CutPrefix(p, "txcache/")
		if !ok {
			continue
		}
		name := pkgName[d]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = d
	}
	skip := map[*ast.Ident]bool{} // declared names, fields and selected names
	for _, d := range sf.f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					skip[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						skip[n] = true
					}
				}
			}
		}
	}
	ast.Inspect(sf.f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			u.selected[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				u.qualified[imports[x.Name]+"."+n.Sel.Name] = true
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					u.selected[id.Name] = true
				}
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Ident:
			if !skip[n] {
				u.bare[dir][n.Name] = true
			}
		}
		return true
	})
}
