// Package analysis is a minimal, stdlib-only mirror of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check
// with a Run function over a type-checked package (a Pass), reporting
// Diagnostics. The repo is deliberately dependency-free, so instead of
// importing x/tools the lint suite carries this small compatible core;
// an analyzer written against it ports to the real driver by changing
// one import.
//
// Suppression: a diagnostic is dropped when the line it lands on, or
// the line above it, carries a comment of the form
//
//	//lint:ignore <analyzer> <justification>
//
// The justification is mandatory; a bare //lint:ignore suppresses
// nothing, and one naming no analyzer of the suite is itself a finding
// (UnknownSuppressions; see DESIGN.md §9).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	Name string // short lower-case identifier, used in diagnostics and suppressions
	Doc  string // one-paragraph description of what the check enforces
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Target is a loaded, type-checked package ready for analysis. Both
// the module loader (internal/lint/load) and the fixture loader
// (internal/lint/analysistest) produce Targets.
type Target struct {
	PkgPath   string // import path of the package
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Pass carries one analyzer's view of one Target and collects its
// diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole-program index over every loaded target: the
	// same-package call graph, leakcheck's goroutine bodies and the
	// no-return set are read from it. RunProgram always populates it —
	// a single-target run just gets a single-target program.
	Prog *Program

	diags      []Diagnostic
	suppressed map[suppressKey]bool
}

type suppressKey struct {
	file string
	line int
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+\S`)

// RunProgram executes one analyzer over one target of a loaded
// program. Suppression comments are honored program-wide, because an
// analyzer may report at positions outside the current target's files.
func RunProgram(prog *Program, t *Target, a *Analyzer) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:   a,
		PkgPath:    t.PkgPath,
		Fset:       t.Fset,
		Files:      t.Files,
		Pkg:        t.Pkg,
		TypesInfo:  t.TypesInfo,
		Prog:       prog,
		suppressed: map[suppressKey]bool{},
	}
	prog.suppressions(func(name string, p token.Position) {
		if name == a.Name {
			pass.suppressed[suppressKey{p.Filename, p.Line}] = true
		}
	})
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i].Pos, pass.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return pass.diags, nil
}

// suppressions calls fn with the analyzer name and position of every
// justified //lint:ignore comment in the program.
func (p *Program) suppressions(fn func(name string, pos token.Position)) {
	for ti := range p.Targets {
		t := &p.Targets[ti]
		for _, f := range t.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if m := ignoreRE.FindStringSubmatch(c.Text); m != nil {
						fn(m[1], t.Fset.Position(c.Pos()))
					}
				}
			}
		}
	}
}

// UnknownSuppressions reports every //lint:ignore comment whose
// analyzer is not in suite. Such a comment suppresses nothing, so a
// stale one — its analyzer renamed or deleted — would otherwise go
// unnoticed.
func UnknownSuppressions(prog *Program, suite []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range suite {
		known[a.Name] = true
	}
	var diags []Diagnostic
	prog.suppressions(func(name string, pos token.Position) {
		if !known[name] {
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("//lint:ignore names %q, which is no analyzer of the suite", name),
			})
		}
	})
	return diags
}

// Reportf records a diagnostic at pos unless an ignore comment for
// this analyzer covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed[suppressKey{position.Filename, position.Line}] ||
		p.suppressed[suppressKey{position.Filename, position.Line - 1}] {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PathMatches reports whether the pass's package import path contains
// any of the given fragments (e.g. "internal/cache"). An empty list
// matches every package.
func (p *Pass) PathMatches(fragments []string) bool {
	if len(fragments) == 0 {
		return true
	}
	for _, f := range fragments {
		if strings.Contains(p.PkgPath, f) {
			return true
		}
	}
	return false
}

// Unparen strips any number of enclosing parentheses from e.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
