// Program is the whole-program layer over the per-package Targets: one
// index of every declared function with its static callees, which the
// same-package call graph (callgraph.go) filters, leakcheck resolves
// goroutine bodies through, and the no-return set behind every CFG is
// computed over.
//
// Functions are keyed by their types.Func FullName ("pkg.F",
// "(*pkg.T).M"), which is stable between a package's own type-checked
// syntax and the export-data view other packages import — the two views
// produce distinct types.Func objects, so object identity cannot span
// packages but names can.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ProgFunc is one declared function in the loaded program.
type ProgFunc struct {
	Name    string // types.Func FullName, the program-wide key
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Target  *Target
	InTest  bool     // declared in a _test.go file
	Callees []string // FullNames of statically referenced functions
}

// Program indexes every declared function across the loaded targets.
type Program struct {
	Targets []Target
	Funcs   map[string]*ProgFunc

	noReturn map[string]bool // built on the first NoReturn query
}

// NewProgram builds the cross-package index over targets.
func NewProgram(targets []Target) *Program {
	p := &Program{Targets: targets, Funcs: map[string]*ProgFunc{}}
	for i := range p.Targets {
		p.indexTarget(&p.Targets[i])
	}
	return p
}

func (p *Program) indexTarget(t *Target) {
	for _, f := range t.Files {
		inTest := strings.HasSuffix(t.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := t.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			pf := &ProgFunc{Name: fn.FullName(), Fn: fn, Decl: fd, Target: t, InTest: inTest}
			collectEdges(t, fd, pf)
			p.Funcs[pf.Name] = pf
		}
	}
}

// collectEdges records fd's static references: direct calls, method
// values and functions used as values.
func collectEdges(t *Target, fd *ast.FuncDecl, pf *ProgFunc) {
	seen := map[string]bool{}
	add := func(fn *types.Func) {
		if fn == nil {
			return
		}
		name := fn.FullName()
		if !seen[name] {
			seen[name] = true
			pf.Callees = append(pf.Callees, name)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			add(FuncFor(t.TypesInfo, n.Fun))
		case *ast.SelectorExpr:
			if sel, ok := t.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
				add(FuncFor(t.TypesInfo, n))
			}
		case *ast.Ident:
			if fn, ok := t.TypesInfo.Uses[n].(*types.Func); ok {
				add(fn)
			}
		}
		return true
	})
}

// FuncFor resolves the *types.Func an expression names (identifier,
// selector, parenthesized either), or nil for builtins, conversions
// and calls through func values. An interface method resolves too;
// it has no declaration in the program.
func FuncFor(info *types.Info, e ast.Expr) *types.Func {
	switch e := Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// stdNoReturn lists standard-library calls that never return.
var stdNoReturn = map[string]bool{
	"os.Exit":        true,
	"runtime.Goexit": true,
	"log.Fatal":      true,
	"log.Fatalf":     true,
	"log.Fatalln":    true,
	"log.Panic":      true,
	"log.Panicf":     true,
	"log.Panicln":    true,
}

// NoReturn reports whether the call never returns: a standard-library
// terminator, or a program function that itself ends in one (cmd-tree
// fatal/usage helpers). The program's set is a fixpoint, built on the
// first query.
func (p *Program) NoReturn(info *types.Info, call *ast.CallExpr) bool {
	fn := FuncFor(info, call.Fun)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && stdNoReturn[fn.Pkg().Path()+"."+fn.Name()] {
		return true
	}
	if p.noReturn == nil {
		p.noReturn = computeNoReturn(p)
	}
	return p.noReturn[fn.FullName()]
}

// computeNoReturn finds program functions whose body always ends the
// process: the last statement is a call to panic, a std terminator, or
// another no-return program function (iterated to a fixpoint).
func computeNoReturn(p *Program) map[string]bool {
	out := map[string]bool{}
	endsInTerminator := func(pf *ProgFunc) bool {
		stmts := pf.Decl.Body.List
		if len(stmts) == 0 {
			return false
		}
		es, ok := stmts[len(stmts)-1].(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isFunc := pf.Target.TypesInfo.Uses[id].(*types.Func); !isFunc {
				return true // the builtin, not a shadowing declaration
			}
		}
		fn := FuncFor(pf.Target.TypesInfo, call.Fun)
		if fn == nil {
			return false
		}
		if fn.Pkg() != nil && stdNoReturn[fn.Pkg().Path()+"."+fn.Name()] {
			return true
		}
		return out[fn.FullName()]
	}
	for changed := true; changed; {
		changed = false
		for name, pf := range p.Funcs {
			if !out[name] && endsInTerminator(pf) {
				out[name] = true
				changed = true
			}
		}
	}
	return out
}
