// Package load builds type-checked packages using only the standard
// library: `go list -deps -json` enumerates the named packages and their
// dependencies in topological order, and go/parser + go/types check
// everything from source. No export data, no network, no
// golang.org/x/tools — the same offline constraint the rest of CI runs
// under. The root package's tests load the root module and the benchmark
// with it once, and both the analyzers (TestLint) and the export ratchet
// (TestExportsHaveCallers) read that one load; the whole tree (~200
// packages including the stdlib slice it uses) checks in about two
// seconds.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"txcache/internal/analysis"
)

// Package is one loaded package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// Root marks packages named by the load patterns (the module's own
	// code); only these are analyzed, and only these get a filled Info.
	Root bool
}

// Program is the result of one Load.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // topological order, dependencies first
	ByPath   map[string]*Package
}

// Units returns the root packages as driver units.
func (p *Program) Units() []*analysis.Unit {
	var us []*analysis.Unit
	for _, pkg := range p.Packages {
		if pkg.Root {
			us = append(us, &analysis.Unit{
				PkgPath: pkg.ImportPath,
				Files:   pkg.Files,
				Pkg:     pkg.Types,
				Info:    pkg.Info,
			})
		}
	}
	return us
}

type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns in dir and type-checks every listed package and
// dependency from source. Test files are not loaded: the invariants the
// suite enforces are library-code invariants, and several regression tests
// deliberately construct the very shapes the analyzers reject.
func Load(dir string, patterns ...string) (*Program, error) {
	args := append([]string{
		"list", "-deps",
		"-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// CGO_ENABLED=0 keeps the stdlib file set pure Go (netgo et al.), so
	// every dependency type-checks from source without running cgo.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}

	prog := &Program{Fset: token.NewFileSet(), ByPath: map[string]*Package{}}
	typed := map[string]*types.Package{"unsafe": types.Unsafe}
	for _, lp := range pkgs { // -deps guarantees dependencies come first
		if lp.ImportPath == "unsafe" {
			continue
		}
		root := !lp.Standard && !lp.DepOnly
		pkg, err := check(prog.Fset, typed, lp, root)
		if err != nil {
			return nil, err
		}
		typed[lp.ImportPath] = pkg.Types
		prog.Packages = append(prog.Packages, pkg)
		prog.ByPath[lp.ImportPath] = pkg
	}
	return prog, nil
}

func check(fset *token.FileSet, typed map[string]*types.Package, lp *listPkg, root bool) (*Package, error) {
	mode := parser.SkipObjectResolution
	if root {
		mode |= parser.ParseComments // directives and fixture expectations
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if root {
		info = NewInfo()
	}
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := typed[path]; ok && p != nil {
				return p, nil
			}
			// Inside the standard library, golang.org/x/... imports
			// resolve to the std vendor tree, which go list reports under
			// the vendor/ prefix.
			if p, ok := typed["vendor/"+path]; ok && p != nil {
				return p, nil
			}
			return nil, fmt.Errorf("package %q not in dependency graph", path)
		}),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
		Sizes: types.SizesFor("gc", "amd64"),
	}
	tp, _ := conf.Check(lp.ImportPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, firstErr)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Files:      files,
		Types:      tp,
		Info:       info,
		Root:       root,
	}, nil
}

// NewInfo allocates a types.Info with every map analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
