// Package load turns `go list` package patterns into type-checked
// analysis targets using only the standard library: syntax comes from
// go/parser over the listed source files, and dependency types come
// from the build cache's export data (`go list -export`) through the
// stdlib gc importer. This is the piece golang.org/x/tools/go/packages
// would normally provide; the repo is dependency-free, so the lint
// driver carries its own.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"cachepirate/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Packages loads and type-checks every package matching patterns
// (resolved by `go list` in dir). Each listed package yields one
// target containing its GoFiles plus in-package test files; packages
// with external (_test package) files yield an extra target for those.
func Packages(dir string, patterns ...string) ([]analysis.Target, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}

	fset := token.NewFileSet()
	imp := NewImporter(fset, dir)
	var targets []analysis.Target
	dec := json.NewDecoder(&out)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if len(lp.GoFiles)+len(lp.TestGoFiles) > 0 {
			t, err := check(fset, imp, lp.ImportPath, lp.Dir,
				append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
			if err != nil {
				return nil, err
			}
			targets = append(targets, t)
		}
		if len(lp.XTestGoFiles) > 0 {
			t, err := check(fset, imp, lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			targets = append(targets, t)
		}
	}
	return targets, nil
}

// Program loads patterns like Packages and builds the cross-package
// index over them. Loading every package through one call is what lets
// an analysis of one package see another's declarations: a fatal
// helper in one package ends the CFG blocks that call it from
// another, and leakcheck resolves a goroutine's body wherever it is
// declared.
func Program(dir string, patterns ...string) (*analysis.Program, error) {
	targets, err := Packages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.NewProgram(targets), nil
}

// check parses and type-checks one package's files.
func check(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (analysis.Target, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.ParseComments)
		if err != nil {
			return analysis.Target{}, fmt.Errorf("parsing %s: %w", f, err)
		}
		syntax = append(syntax, af)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return analysis.Target{}, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return analysis.Target{PkgPath: path, Fset: fset, Files: syntax, Pkg: pkg, TypesInfo: info}, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// exportImporter resolves imports from compiled export data: each
// import path is located once via `go list -export` (which compiles it
// into the build cache if needed) and read by the stdlib gc importer.
type exportImporter struct {
	dir   string
	gc    types.ImporterFrom
	files map[string]string // import path -> export file, cached
}

// NewImporter returns an importer rooted at dir (any directory inside
// the module, so `go list` resolves module-internal import paths).
func NewImporter(fset *token.FileSet, dir string) types.Importer {
	e := &exportImporter{dir: dir, files: map[string]string{}}
	e.gc = importer.ForCompiler(fset, "gc", e.lookup).(types.ImporterFrom)
	return e
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.gc.ImportFrom(path, e.dir, 0)
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := e.files[path]
	if !ok {
		cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
		cmd.Dir = e.dir
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go list -export %s: %v: %s", path, err, errb.String())
		}
		file = strings.TrimSpace(out.String())
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		e.files[path] = file
	}
	return os.Open(file)
}
