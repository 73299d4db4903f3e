// Command htlint is HyperTester's static-analysis driver: a multichecker
// that runs the repository's analyzer suite (poolsafety, determinism,
// atcall, obsalloc — see internal/lint) over Go packages and exits
// non-zero on any diagnostic.
//
// Usage:
//
//	go run ./cmd/htlint ./...          # whole repository
//	go run ./cmd/htlint ./internal/asic
//	go run ./cmd/htlint -list          # describe the analyzers
//
// Suppress a single finding with a trailing or preceding comment:
//
//	//htlint:ignore poolsafety the scheduler owns queued events
//
// The IR-level symbolic verifier is separate: it runs inside the compiler
// on every Compile call (internal/core/compiler, internal/verify), and
// TestCorpusVerifiesClean in internal/experiments holds the experiment
// corpus to zero diagnostics.
package main

import (
	"os"

	"github.com/hypertester/hypertester/internal/lint"
)

func main() {
	tool := &lint.Tool{
		Name:     "htlint",
		Doc:      "run the repository analyzer suite over Go packages",
		Checkers: lint.AnalyzerCheckers(lint.DefaultAnalyzers()),
	}
	os.Exit(tool.Main(os.Args[1:]))
}
