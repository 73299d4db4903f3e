// Command htlint is HyperTester's static-analysis driver: it runs the
// repository's analyzer suite (poolsafety, determinism, atcall, obsalloc —
// see internal/lint) over Go packages through lint.Run, one package load per
// run, and prints each diagnostic as file:line:col: analyzer: message.
//
// Usage:
//
//	go run ./cmd/htlint ./...          # whole repository (the default)
//	go run ./cmd/htlint ./internal/asic
//	go run ./cmd/htlint -dir ../other ./...
//	go run ./cmd/htlint -list          # describe the analyzers
//
// Exit status: 0 clean, 1 findings, 2 usage or internal error.
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
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/hypertester/hypertester/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over argv (without the program name); it returns the
// exit status.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("htlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: htlint [flags] [patterns]\nrun the repository analyzer suite over Go packages")
		fs.PrintDefaults()
	}
	list := fs.Bool("list", false, "describe the analyzers and exit")
	dir := fs.String("dir", ".", "directory to resolve patterns from")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(*dir, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "htlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "htlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
