// Package errcheckdomain defines an analyzer for two error-handling
// hazards specific to this repo's measurement pipeline:
//
//  1. Dropped errors from the trace/report/conformance APIs. A
//     swallowed trace.Write error truncates a capture silently; a
//     swallowed conformance.Check* error is a skipped invariant — in
//     both cases the simulation "passes" on corrupt evidence, the
//     worst failure mode a measurement harness can have.
//
//  2. Equality comparisons between float64 metrics. Miss and fetch
//     ratios, CPIs and slowdowns are NaN-able (0/0 intervals before
//     the MetricErrors hardening); x == y and x != y are silently
//     false/true for NaN, so comparisons must either guard with
//     math.IsNaN or compare against an explicit tolerance. The guard
//     check is flow-sensitive: it runs a must-dataflow over the
//     function's CFG, so the IsNaN/IsInf call has to dominate the
//     comparison — a guard on another path (or after the compare)
//     no longer launders it.
//
//  3. Dropped response-write errors in the HTTP server packages
//     (ServerDomains). A failed json.Encoder.Encode or
//     ResponseWriter.Write means the client got a truncated body;
//     silently discarding the error hides broken responses from the
//     serving metrics, so it must be counted or handled.
//
// Test files are exempt: tests drop errors and pin exact float
// constants deliberately.
package errcheckdomain

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"cachepirate/internal/lint/analysis"
)

// Domains lists the import-path fragments whose error returns must
// never be dropped.
var Domains = []string{
	"internal/trace",
	"internal/report",
	"internal/conformance",
}

// ServerDomains lists the import-path fragments where dropped
// response-write errors (json.Encoder.Encode, ResponseWriter.Write,
// fmt.Fprint* to a ResponseWriter) are flagged.
var ServerDomains = []string{
	"internal/server",
}

// Analyzer flags dropped domain errors and unguarded float equality.
var Analyzer = &analysis.Analyzer{
	Name: "errcheckdomain",
	Doc: "flags dropped errors from trace/report/conformance APIs and " +
		"float64 equality comparisons without math.IsNaN guards",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDropped(pass, call)
				}
			case *ast.GoStmt:
				checkDropped(pass, n.Call)
			case *ast.DeferStmt:
				checkDropped(pass, n.Call)
			case *ast.AssignStmt:
				checkBlankError(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFloatEquality(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// domainError reports whether call invokes a domain function whose
// last result is an error.
func domainError(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.FuncFor(pass.TypesInfo, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkgPath := fn.Pkg().Path()
	match := false
	for _, d := range Domains {
		if strings.Contains(pkgPath, d) {
			match = true
			break
		}
	}
	if !match {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return "", false
	}
	if !types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// checkDropped flags a domain call whose results are discarded
// entirely (statement position, go, defer).
func checkDropped(pass *analysis.Pass, call *ast.CallExpr) {
	if name, ok := domainError(pass, call); ok {
		pass.Reportf(call.Pos(), "error from %s is dropped; trace/report/conformance errors must be handled", name)
		return
	}
	if name, ok := serverWriteError(pass, call); ok {
		pass.Reportf(call.Pos(), "response write error from %s is dropped; count the failure or handle it", name)
	}
}

// serverWriteError reports whether call is a response write whose
// error matters in the server packages: Encode on a json.Encoder,
// Write on an http.ResponseWriter, or fmt.Fprint* targeting one.
func serverWriteError(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if !pass.PathMatches(ServerDomains) {
		return "", false
	}
	fn := analysis.FuncFor(pass.TypesInfo, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch {
	case fn.Name() == "Encode" && fn.Pkg().Path() == "encoding/json":
		return "json.Encoder.Encode", true
	case fn.Name() == "Write":
		if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			isResponseWriter(pass.TypesInfo.TypeOf(sel.X)) {
			return "ResponseWriter.Write", true
		}
	case fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint"):
		if len(call.Args) > 0 && isResponseWriter(pass.TypesInfo.TypeOf(call.Args[0])) {
			return "fmt." + fn.Name(), true
		}
	}
	return "", false
}

// isResponseWriter reports whether t is the net/http.ResponseWriter
// interface itself (concrete writers wrapping one are the caller's
// own API and out of scope).
func isResponseWriter(t types.Type) bool {
	return t != nil && types.TypeString(t, nil) == "net/http.ResponseWriter"
}

// checkBlankError flags assignments that discard a domain call's error
// into the blank identifier.
func checkBlankError(pass *analysis.Pass, as *ast.AssignStmt) {
	// Both `_ = f()` / `x, _ := f()` shapes: the call is the sole RHS.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := analysis.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	// The error is the last result; it maps to the last LHS.
	last := as.Lhs[len(as.Lhs)-1]
	id, isIdent := last.(*ast.Ident)
	if !isIdent || id.Name != "_" {
		return
	}
	if name, ok := domainError(pass, call); ok {
		pass.Reportf(as.Pos(), "error from %s is assigned to _; trace/report/conformance errors must be handled", name)
		return
	}
	if name, ok := serverWriteError(pass, call); ok {
		pass.Reportf(as.Pos(), "response write error from %s is assigned to _; count the failure or handle it", name)
	}
}

// checkFloatEquality flags == and != between non-constant float
// operands inside fn, unless a math.IsNaN/IsInf guard on either
// operand dominates the comparison. The check is a must-dataflow over
// the function's CFG: a guard generates a fact on its operand objects,
// and the fact reaches a comparison only if every path to it passes
// through the guard — flow-sensitive where the old version accepted a
// guard anywhere in the function body.
func checkFloatEquality(pass *analysis.Pass, fn *ast.FuncDecl) {
	cfg := analysis.NewCFG(fn.Body, func(call *ast.CallExpr) bool {
		return pass.Prog.NoReturn(pass.TypesInfo, call)
	})
	flow := &analysis.Flow{
		CFG:  cfg,
		Must: true,
		Transfer: func(n ast.Node, facts analysis.FactSet) {
			ast.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if f := analysis.FuncFor(pass.TypesInfo, call.Fun); f != nil && f.Pkg() != nil &&
					f.Pkg().Path() == "math" && (f.Name() == "IsNaN" || f.Name() == "IsInf") {
					for _, arg := range call.Args {
						if obj := operandObj(pass, arg); obj != nil {
							facts[guardFact(obj)] = true
						}
					}
				}
				return true
			})
		},
	}
	in := flow.Solve()
	for _, blk := range cfg.Blocks {
		if in[blk.Index] == nil {
			continue // unreachable
		}
		flow.Replay(blk, in[blk.Index], func(n ast.Node, facts analysis.FactSet) {
			// A guard inside the same statement as the comparison
			// (if !math.IsNaN(a) && a == b) counts too: apply this
			// node's own gen before checking.
			local := facts.Clone()
			flow.Transfer(n, local)
			facts = local
			ast.Inspect(n, func(m ast.Node) bool {
				be, ok := m.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isNonConstFloat(pass, be.X) || !isNonConstFloat(pass, be.Y) {
					return true
				}
				xo, yo := operandObj(pass, be.X), operandObj(pass, be.Y)
				if (xo != nil && facts[guardFact(xo)]) || (yo != nil && facts[guardFact(yo)]) {
					return true
				}
				pass.Reportf(be.Pos(), "float64 %s comparison on NaN-able metrics; guard with math.IsNaN or compare against a tolerance", be.Op)
				return true
			})
		})
	}
}

// guardFact keys a NaN-guard fact to a specific variable object.
func guardFact(obj types.Object) string {
	return "nan:" + obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
}

// operandObj resolves the variable object behind a comparison operand
// (plain identifier or field selector), or nil.
func operandObj(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// isNonConstFloat reports whether e is a float-typed, non-constant
// expression — the operand shape that can carry NaN at runtime.
func isNonConstFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
