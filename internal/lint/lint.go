// Package lint is a self-contained static-analysis framework for the
// HyperTester repository, modelled on golang.org/x/tools/go/analysis but
// built entirely on the standard library (the build environment carries no
// third-party modules). It provides:
//
//   - an Analyzer/Pass/Diagnostic API mirroring go/analysis, so the
//     analyzers port to the x/tools multichecker unchanged if that
//     dependency ever becomes available;
//   - a package loader (load.go) that type-checks the module's packages —
//     and, transitively, their standard-library dependencies — from source
//     using go/parser and go/types, with `go list -deps -json` supplying
//     the file sets in topological order;
//   - a driver (driver.go) that runs analyzer suites over loaded packages
//     and supports targeted `//htlint:ignore <analyzer> <reason>`
//     suppression comments;
//   - the HyperTester-specific analyzers: poolsafety, determinism, atcall,
//     obsalloc (DefaultAnalyzers).
//
// cmd/htlint is the command-line entry point (flags and exit status around
// one Run call); internal/lint/linttest runs analyzers over
// `// want`-annotated fixtures in the style of go/analysis/analysistest.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //htlint:ignore comments. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph description printed by `htlint -help`.
	Doc string

	// Run applies the analyzer to one package, reporting findings
	// through pass.Report. It returns an error only for analysis
	// malfunctions, never for findings.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives each diagnostic; installed by the driver.
	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}
