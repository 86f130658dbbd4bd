// Package detrand defines an analyzer that flags sources of
// nondeterminism inside the simulation packages. The reproduction's
// core contract is that simulations are bit-identical across runs and
// across -j levels (DESIGN.md §7); wall-clock reads, global PRNGs,
// unordered map iteration, ad-hoc goroutines and sync.Map all break
// that contract silently, so they are banned at lint time in the
// packages that compute simulated state.
//
// The check is deliberately syntactic (no CFG or call graph): a banned
// construct is a finding wherever it appears, reachable or not. The
// flow-sensitive end of the suite — goroutine join edges, lock
// domination — lives in leakcheck and lockguard (DESIGN.md §9).
package detrand

import (
	"go/ast"
	"go/types"

	"cachepirate/internal/lint/analysis"
)

// Scope lists the import-path fragments of the packages the analyzer
// applies to: everything that computes simulated state. Orchestration
// (internal/runner) is the one place goroutines are allowed; it
// guarantees index-ordered result delivery and is exercised by the
// determinism tests instead.
var Scope = []string{
	"internal/cache",
	"internal/machine",
	"internal/core",
	"internal/simulate",
	"internal/stackdist",
	"internal/analytic",
	"internal/prefetch",
	"internal/counters",
}

// exempt lists fragments that override Scope (more specific wins).
var exempt = []string{
	"internal/runner",
}

// Analyzer flags nondeterminism hazards in simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "flags nondeterminism in simulation packages: time.Now/math/rand, " +
		"map iteration, goroutines and sync.Map outside internal/runner",
	Run: run,
}

// bannedTimeFuncs are wall-clock reads; simulated time comes from the
// machine's event clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

func run(pass *analysis.Pass) error {
	if !pass.PathMatches(Scope) || pass.PathMatches(exempt) {
		return nil
	}
	for _, f := range pass.Files {
		inTest := pass.InTestFile(f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				// Map iteration order varies run to run. Flagged in
				// test files too: determinism tests comparing against
				// map-ordered expectations are flaky by construction,
				// and the satellite suites replay their diagnostics.
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over map: iteration order is nondeterministic; iterate sorted keys instead")
					}
				}
			case *ast.ImportSpec:
				if inTest {
					return true
				}
				if p := importPath(n); p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(n.Pos(), "import of %s: use the seeded internal/stats RNG so streams are reproducible", p)
				}
			case *ast.GoStmt:
				if inTest {
					return true
				}
				pass.Reportf(n.Pos(), "goroutine in a simulation package: scheduling order is nondeterministic; use internal/runner for parallelism")
			case *ast.CallExpr:
				if inTest {
					return true
				}
				if fn := analysis.FuncFor(pass.TypesInfo, n.Fun); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "time" && bannedTimeFuncs[fn.Name()] {
					pass.Reportf(n.Pos(), "time.%s in a simulation package: wall-clock reads are nondeterministic; use the machine's event clock", fn.Name())
				}
			case *ast.SelectorExpr:
				if inTest {
					return true
				}
				// sync.Map used as a type: per-key ordering and Range
				// order are unspecified.
				if tn, ok := pass.TypesInfo.Uses[n.Sel].(*types.TypeName); ok &&
					tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Map" {
					pass.Reportf(n.Pos(), "sync.Map in a simulation package: Range order and interleaving are nondeterministic")
				}
			}
			return true
		})
	}
	return nil
}

func importPath(s *ast.ImportSpec) string {
	p := s.Path.Value
	return p[1 : len(p)-1]
}
