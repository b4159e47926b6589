// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis: an Analyzer is a named check, a Pass
// hands it one type-checked package, diagnostics are (position,
// message) pairs. The x/tools module is deliberately not a dependency
// — the repo builds offline with the standard library alone — but the
// shapes mirror the real API one-to-one so the suite can be rebased
// onto the upstream multichecker by swapping import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string

	// Doc is the one-paragraph help text: first line is a summary,
	// the rest explains the rule the analyzer enforces.
	Doc string

	// Run applies the analyzer to one package. It reports findings
	// through pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// Pass provides one analyzer run with one package's syntax and types.
type Pass struct {
	Analyzer *Analyzer

	Fset *token.FileSet

	// Files holds the type-checked syntax trees of the package's
	// non-test sources.
	Files []*ast.File

	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
