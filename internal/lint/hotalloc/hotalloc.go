// Package hotalloc defines an analyzer that bans allocation-inducing
// constructs inside functions annotated //lint:hotpath. The SoA cache
// kernel and the machine step loop are allocation-free by contract
// (internal/machine/alloc_test.go gates them with
// testing.AllocsPerRun at runtime); this analyzer catches the same
// regressions statically, at lint time, including on paths a test
// trace does not reach.
//
// Hot-path membership propagates: a function annotated
// //lint:hotpath makes every same-package function it statically
// reaches hot too, through direct calls, method calls and method
// values (h := c.step; h()). Cross-package hot callees carry their own
// annotation (e.g. cache.AccessFill is annotated even though its
// callers live in internal/machine).
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cachepirate/internal/lint/analysis"
)

// Annotation marks a function as a hot path when it appears in the
// function's doc comment.
const Annotation = "//lint:hotpath"

// Analyzer flags allocation-inducing constructs in annotated hot paths.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocating constructs (closures, interface conversions, append, " +
		"map/slice literals, make/new, fmt calls) in functions marked " + Annotation,
	Run: run,
}

func run(pass *analysis.Pass) error {
	decls := pass.FuncDecls(true)

	// Roots: every function whose doc comment carries the annotation.
	var roots []*types.Func
	for fn, fd := range decls {
		if annotated(fd) {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil
	}

	for fn := range pass.Reach(roots, decls) {
		checkFunc(pass, decls[fn])
	}
	return nil
}

// annotated reports whether the declaration's doc comment contains the
// hotpath marker.
func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, Annotation) {
			return true
		}
	}
	return false
}

// checkFunc walks one hot function's body and reports each allocating
// construct.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	// fmt calls are reported once per call; their variadic ...any
	// arguments would otherwise each re-report as an interface
	// conversion on the same position.
	reportedCalls := map[*ast.CallExpr]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if caps := captures(pass, fd, n); len(caps) > 0 {
				pass.Reportf(n.Pos(), "hot path %s: closure captures %s by reference (allocates)",
					name, strings.Join(caps, ", "))
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "hot path %s: map literal allocates", name)
				case *types.Slice:
					pass.Reportf(n.Pos(), "hot path %s: slice literal allocates", name)
				}
			}
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				pass.Reportf(n.Pos(), "hot path %s: address of composite literal escapes to the heap", name)
			}
		case *ast.CallExpr:
			checkCall(pass, name, n, reportedCalls)
		case *ast.AssignStmt:
			checkAssign(pass, name, n)
		case *ast.ReturnStmt:
			checkReturn(pass, name, fd, n)
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if !isCallFun(fd.Body, n) {
					pass.Reportf(n.Pos(), "hot path %s: method value allocates a bound-method closure", name)
				}
			}
		}
		return true
	})
}

// isCallFun reports whether sel is used directly as the callee of some
// call expression in body (x.m() rather than f := x.m).
func isCallFun(body ast.Node, sel *ast.SelectorExpr) bool {
	direct := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && analysis.Unparen(call.Fun) == ast.Expr(sel) {
			direct = true
			return false
		}
		return true
	})
	return direct
}

// captures returns the names of variables declared in the enclosing
// function that the closure references — captured state that forces a
// heap-allocated closure context.
func captures(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		// Captured iff declared inside the enclosing declaration but
		// outside the literal itself (package-level vars need no
		// closure context).
		if obj.Pos() >= fd.Pos() && obj.Pos() < fd.End() &&
			!(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			seen[obj] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}

// checkCall flags builtin allocators, fmt calls, and concrete-to-
// interface conversions at call boundaries.
func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr, reported map[*ast.CallExpr]bool) {
	// Explicit conversion T(x) where T is an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type) && concrete(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "hot path %s: conversion to interface %s allocates", name, tv.Type.String())
		}
		return
	}

	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "hot path %s: append may grow and allocate; preallocate outside the hot path", name)
			case "make":
				pass.Reportf(call.Pos(), "hot path %s: make allocates", name)
			case "new":
				pass.Reportf(call.Pos(), "hot path %s: new allocates", name)
			}
			return
		}
	}

	if fn := analysis.FuncFor(pass.TypesInfo, call.Fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path %s: fmt.%s allocates (formatting state and boxed arguments)", name, fn.Name())
		reported[call] = true
		return
	}

	// Concrete arguments passed to interface parameters box.
	sig, ok := typeAsSignature(pass, call.Fun)
	if !ok || reported[call] {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && concrete(pass, arg) {
			pass.Reportf(arg.Pos(), "hot path %s: passing concrete value as interface %s allocates", name, pt.String())
		}
	}
}

// typeAsSignature resolves the callee's signature, when it is a
// function call (not a builtin or conversion).
func typeAsSignature(pass *analysis.Pass, fun ast.Expr) (*types.Signature, bool) {
	tv, ok := pass.TypesInfo.Types[fun]
	if !ok {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// checkAssign flags assignments of concrete values into already-typed
// interface destinations (x = v where x is an interface).
func checkAssign(pass *analysis.Pass, name string, as *ast.AssignStmt) {
	if as.Tok.String() != "=" || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		lt := pass.TypesInfo.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		if concrete(pass, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(), "hot path %s: storing concrete value into interface %s allocates", name, lt.String())
		}
	}
}

// checkReturn flags returns of concrete values from interface-typed
// results.
func checkReturn(pass *analysis.Pass, name string, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	sig, ok := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
	if !ok {
		return
	}
	results := sig.Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		rt := results.At(i).Type()
		if types.IsInterface(rt) && concrete(pass, r) {
			pass.Reportf(r.Pos(), "hot path %s: returning concrete value as interface %s allocates", name, rt.String())
		}
	}
}

// concrete reports whether e has a non-interface type and is not a nil
// literal — the shape whose conversion to an interface boxes.
func concrete(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.IsNil() {
		return false
	}
	if tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(tv.Type)
}
