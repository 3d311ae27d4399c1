package txcache_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
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

	markers := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		decls := keptCandidates(f)
		for _, g := range f.Comments {
			for _, c := range g.List {
				if !strings.Contains(c.Text, keptMarker) {
					continue
				}
				markers++
				pos := fset.Position(c.Pos())
				name := ""
				var at token.Pos
				for _, d := range decls {
					onLine := fset.Position(d.pos).Line == pos.Line
					if (onLine || d.doc == g) && (name == "" || d.pos < at) {
						name, at = d.name, d.pos
					}
				}
				switch {
				case name == "":
					t.Errorf("%s: marker sits on no func, method, field or type", pos)
				case !used[name]:
					t.Errorf("%s: %s is kept for benchmark/, which never names it", pos, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if markers == 0 {
		t.Fatal("no marker found: the walk looked in the wrong place")
	}
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
