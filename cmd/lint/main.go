// Command lint is the repo's multichecker: it runs the custom
// go/analysis-style suite (internal/lint) over the given package
// patterns and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/lint ./...
//	go run ./cmd/lint -a detrand,hotalloc ./internal/cache
//
// The six analyzers (see DESIGN.md §9):
//
//	detrand        nondeterminism in simulation packages
//	hotalloc       allocation in //lint:hotpath functions
//	counterpair    counter writes violating conservation identities
//	errcheckdomain dropped trace/report/conformance and response-write
//	               errors, unguarded float equality
//	lockguard      struct-field accesses without the inferred sibling mutex
//	leakcheck      unjoinable goroutines, Closers not closed on all paths
//
// All packages load into one whole-program index (internal/lint/
// analysis.Program) before any analyzer runs, so the no-return set the
// CFG builder consumes and leakcheck's goroutine bodies span packages.
//
// Findings are suppressed per line with `//lint:ignore <analyzer>
// <justification>`; the justification is mandatory, and a suppression
// naming none of the six analyzers is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cachepirate/internal/lint/analysis"
	"cachepirate/internal/lint/counterpair"
	"cachepirate/internal/lint/detrand"
	"cachepirate/internal/lint/errcheckdomain"
	"cachepirate/internal/lint/hotalloc"
	"cachepirate/internal/lint/leakcheck"
	"cachepirate/internal/lint/load"
	"cachepirate/internal/lint/lockguard"
)

var all = []*analysis.Analyzer{
	detrand.Analyzer,
	hotalloc.Analyzer,
	counterpair.Analyzer,
	errcheckdomain.Analyzer,
	lockguard.Analyzer,
	leakcheck.Analyzer,
}

func main() {
	names := flag.String("a", "", "comma-separated analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lint [-a analyzers] packages...\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	analyzers := all
	if *names != "" {
		analyzers = nil
		want := map[string]bool{}
		for _, n := range strings.Split(*names, ",") {
			want[strings.TrimSpace(n)] = true
		}
		for _, a := range all {
			if want[a.Name] {
				analyzers = append(analyzers, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "lint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
	}

	prog, err := load.Program(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(1)
	}

	found := 0
	for _, d := range analysis.UnknownSuppressions(prog, all) {
		fmt.Println(d)
		found++
	}
	for ti := range prog.Targets {
		t := &prog.Targets[ti]
		for _, a := range analyzers {
			diags, err := analysis.RunProgram(prog, t, a)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lint:", err)
				os.Exit(1)
			}
			for _, d := range diags {
				fmt.Println(d)
				found++
			}
		}
	}

	if found > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", found)
		os.Exit(1)
	}
}
