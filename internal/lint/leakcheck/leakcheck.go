// Package leakcheck defines an analyzer for resource lifetimes in the
// server era: goroutines and closable resources must have an explicit
// end. Two checks share the package because they share a failure mode
// — a per-request acquisition with no guaranteed release accumulates
// until the process dies under load, the exact degradation the curve
// server exists to measure in other programs.
//
// Goroutines: every `go` statement's body must contain a completion
// edge — sync.WaitGroup.Done, a channel send/close/receive (including
// `for range ch` and ctx.Done), a context cancel call, or
// Close/CloseWithError on a pipe. A goroutine with none of these has
// no way to be joined or told to stop, so nothing bounds its lifetime.
//
// Closers: a value whose type implements io.Closer, acquired by a
// call in some function, must be closed on every CFG path out of that
// function — or have its ownership visibly transferred (passed as an
// argument, returned, stored, or captured). The check runs a may-
// dataflow over the function's CFG: "open" facts are generated at the
// acquisition, killed by Close/defer-Close/ownership transfer, and
// killed on the error arm of the acquisition's `err != nil` check
// (the resource is invalid there). Any open fact reaching the exit
// block is a path that returns with the resource still held.
package leakcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"

	"cachepirate/internal/lint/analysis"
)

// Analyzer flags unjoinable goroutines and Closers not closed on every
// path.
var Analyzer = &analysis.Analyzer{
	Name: "leakcheck",
	Doc: "flags goroutines with no join/cancel edge and io.Closer values " +
		"not closed on every CFG path out of the acquiring function",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, pf := range pass.Prog.Funcs {
		if pf.Target.PkgPath != pass.PkgPath || pf.InTest {
			continue
		}
		checkGoroutines(pass, pf)
		checkClosers(pass, pf.Decl.Body)
		ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkClosers(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// ---- goroutine join/cancel edges ----

// checkGoroutines inspects every `go` statement in pf and requires a
// completion edge in the spawned body.
func checkGoroutines(pass *analysis.Pass, pf *analysis.ProgFunc) {
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := spawnedBody(pass, g.Call)
		if body == nil {
			return true // dynamic target; nothing to inspect
		}
		if !hasCompletionEdge(pass.TypesInfo, body) {
			pass.Reportf(g.Pos(),
				"goroutine has no join or cancel edge (no WaitGroup.Done, channel send/close/receive, context cancel, or Close in its body); its lifetime is unbounded")
		}
		return true
	})
}

// spawnedBody resolves the body a `go` statement runs: a function
// literal's own body, or the declaration of a statically-resolved
// program function.
func spawnedBody(pass *analysis.Pass, call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := analysis.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	fn := analysis.FuncFor(pass.TypesInfo, call.Fun)
	if fn == nil {
		return nil
	}
	if pf, ok := pass.Prog.Funcs[fn.FullName()]; ok {
		return pf.Decl.Body
	}
	return nil
}

// completionMethods are method names that end or signal the end of a
// goroutine's work when called anywhere in its body.
var completionMethods = map[string]bool{
	"Done":           true, // sync.WaitGroup.Done (and ctx.Done via receive)
	"Close":          true,
	"CloseWithError": true,
}

// hasCompletionEdge reports whether body contains any join/cancel
// construct, in the body itself or any closure it runs.
func hasCompletionEdge(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // blocking receive: exits when signaled
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true // exits when the channel closes
				}
			}
		case *ast.CallExpr:
			switch fun := analysis.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin && fun.Name == "close" {
					found = true
				}
				if t := info.TypeOf(fun); t != nil &&
					types.TypeString(t, nil) == "context.CancelFunc" {
					found = true
				}
			case *ast.SelectorExpr:
				if completionMethods[fun.Sel.Name] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// ---- closers closed on every path ----

// acquisition is one tracked Closer-producing assignment.
type acquisition struct {
	fact string
	name string
	pos  token.Pos
	obj  types.Object
	err  types.Object // paired error variable, if the call returned one
}

// checkClosers runs the open-resource may-dataflow over one body.
func checkClosers(pass *analysis.Pass, body *ast.BlockStmt) {
	acqs := findAcquisitions(pass.TypesInfo, body)
	if len(acqs) == 0 {
		return
	}
	byObj := map[types.Object]*acquisition{}
	byErr := map[types.Object][]*acquisition{}
	byFact := map[string]*acquisition{}
	for _, a := range acqs {
		byObj[a.obj] = a
		byFact[a.fact] = a
		if a.err != nil {
			byErr[a.err] = append(byErr[a.err], a)
		}
	}

	cfg := analysis.NewCFG(body, func(call *ast.CallExpr) bool {
		return pass.Prog.NoReturn(pass.TypesInfo, call)
	})
	flow := &analysis.Flow{
		CFG:  cfg,
		Must: false, // may-analysis: open on some path ⇒ leak candidate
		Transfer: func(n ast.Node, facts analysis.FactSet) {
			transferClosers(pass.TypesInfo, n, byObj, facts)
		},
		EdgeTransfer: func(cond ast.Expr, branch bool, facts analysis.FactSet) {
			// On the failing arm of `err != nil` the paired resource was
			// never valid; tracking it there is a false leak.
			errObj, nonNilBranch := errNilCheck(pass.TypesInfo, cond)
			if errObj == nil {
				return
			}
			if branch == nonNilBranch {
				for _, a := range byErr[errObj] {
					delete(facts, a.fact)
				}
			}
		},
	}
	in := flow.Solve()

	exit := in[cfg.Exit.Index]
	if exit == nil {
		return // no path reaches the exit (everything panics/os.Exits)
	}
	var leaked []string
	for fact := range exit {
		leaked = append(leaked, fact)
	}
	sort.Strings(leaked)
	for _, fact := range leaked {
		a := byFact[fact]
		pass.Reportf(a.pos,
			"%s is not closed on every path out of this function; add defer %s.Close() after the error check or close it before returning",
			a.name, a.name)
	}
}

// findAcquisitions collects assignments that bind Closer-typed results
// of calls to local identifiers, pairing each with the error variable
// of the same assignment if present.
func findAcquisitions(info *types.Info, body *ast.BlockStmt) []*acquisition {
	var out []*acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures are analyzed as their own bodies
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if _, ok := analysis.Unparen(as.Rhs[0]).(*ast.CallExpr); !ok {
			return true
		}
		var errObj types.Object
		var resources []*acquisition
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if types.TypeString(obj.Type(), nil) == "error" {
				errObj = obj
				continue
			}
			if !isCloser(obj.Type()) {
				continue
			}
			resources = append(resources, &acquisition{
				fact: "open:" + id.Name + "@" + strconv.Itoa(int(obj.Pos())),
				name: id.Name,
				pos:  id.Pos(),
				obj:  obj,
			})
		}
		for _, a := range resources {
			a.err = errObj
			out = append(out, a)
		}
		return true
	})
	return out
}

// transferClosers applies one CFG node: ownership-ending uses kill the
// open fact first, then acquisitions (re)generate it. Receiver
// position of a non-Close method call is the one use that keeps a
// resource tracked — everything else (Close, argument passing,
// returning, storing, capture by a closure) ends this function's
// responsibility for it.
func transferClosers(info *types.Info, n ast.Node, byObj map[types.Object]*acquisition, facts analysis.FactSet) {
	// Receiver idents of non-Close method calls do not affect facts.
	protected := map[*ast.Ident]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if _, isMethod := info.Uses[sel.Sel].(*types.Func); !isMethod {
			return true
		}
		if completionClose(sel.Sel.Name) {
			return true // Close/CloseWithError receivers are kills
		}
		if id, ok := analysis.Unparen(sel.X).(*ast.Ident); ok {
			protected[id] = true
		}
		return true
	})
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || protected[id] {
			return true
		}
		if a, tracked := byObj[info.Uses[id]]; tracked {
			delete(facts, a.fact)
		}
		return true
	})
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if a, tracked := byObj[obj]; tracked && sameAssign(a, as, info, id) {
				facts[a.fact] = true
			}
		}
	}
}

// sameAssign reports whether this assignment is the acquisition that
// defined a (by object identity of the bound ident), so reassignment
// through an unrelated expression does not re-open a closed resource.
func sameAssign(a *acquisition, as *ast.AssignStmt, info *types.Info, id *ast.Ident) bool {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj != a.obj {
		return false
	}
	if len(as.Rhs) != 1 {
		return false
	}
	_, isCall := analysis.Unparen(as.Rhs[0]).(*ast.CallExpr)
	return isCall
}

func completionClose(name string) bool {
	return name == "Close" || name == "CloseWithError"
}

// errNilCheck decodes a condition of the form `err != nil` / `err ==
// nil`, returning the error object and which branch is the non-nil
// (failure) arm: true for !=, false for ==.
func errNilCheck(info *types.Info, cond ast.Expr) (types.Object, bool) {
	bin, ok := analysis.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return nil, false
	}
	x, y := analysis.Unparen(bin.X), analysis.Unparen(bin.Y)
	if isNilIdent(info, x) {
		x, y = y, x
	}
	if !isNilIdent(info, y) {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := info.Uses[id]
	if obj == nil || types.TypeString(obj.Type(), nil) != "error" {
		return nil, false
	}
	return obj, bin.Op == token.NEQ
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// closerIface is io.Closer rebuilt from first principles so the check
// does not depend on having io in the import graph.
var closerIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	results := types.NewTuple(types.NewVar(token.NoPos, nil, "", errType))
	sig := types.NewSignatureType(nil, nil, nil, nil, results, false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Close", sig)}, nil)
	iface.Complete()
	return iface
}()

// isCloser reports whether t (or *t for value types) implements
// io.Closer.
func isCloser(t types.Type) bool {
	if types.Implements(t, closerIface) {
		return true
	}
	switch t.(type) {
	case *types.Pointer, *types.Interface:
		return false
	}
	return types.Implements(types.NewPointer(t), closerIface)
}
