// Command htverify runs the path-sensitive symbolic verifier
// (internal/verify) over the 18-program experiment corpus. The witness-packet
// differential (compiled plan vs naive IR interpreter) lives once, as
// TestWitnessDifferential in internal/experiments; `make verify` runs both.
//
// Usage:
//
//	go run ./cmd/htverify                  # whole corpus
//	go run ./cmd/htverify table5_ipscan    # named programs only
//	go run ./cmd/htverify -list            # describe the checkers
//
// Exit status: 0 clean, 1 findings (verifier diagnostics), 2 internal error.
// Queries compiled from a truncated header space are listed on stderr, one
// line each, without changing the status.
package main

import (
	"fmt"
	"os"

	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/lint"
	"github.com/hypertester/hypertester/internal/verify"
)

// corpus returns the experiment programs selected by args (all when empty).
func corpus(args []string) ([]experiments.ProgramSpec, error) {
	specs := experiments.Programs()
	if len(args) == 0 {
		return specs, nil
	}
	byName := map[string]experiments.ProgramSpec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	var out []experiments.ProgramSpec
	for _, name := range args {
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown program %q (the corpus is experiments.Programs)", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// runVerify compiles each program and reports every verifier diagnostic,
// error and warning severity alike. A query whose header space was
// truncated (§5.2's guarantee does not hold for it) gets a note on stderr.
func runVerify(dir string, args []string) ([]string, error) {
	specs, err := corpus(args)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, spec := range specs {
		prog, err := spec.Compile()
		if err != nil {
			// A compile rejection of a corpus program is itself a finding:
			// the corpus is expected to be feasible.
			lines = append(lines, fmt.Sprintf("%s: %v", spec.Name, err))
			continue
		}
		for _, q := range prog.Queries {
			if q.HeaderSpaceTruncated {
				// A note, not a finding: the plan is still safe to run, and
				// the corpus knowingly holds one (table5_ipscan scans a /13
				// under a 1<<16 cap).
				fmt.Fprintf(os.Stderr, "htverify: note: %s: query %s: header space truncated at %d tuples: no exact keys, not false-positive-free (§5.2)\n",
					spec.Name, q.Query.Name, q.HeaderSpaceSize)
			}
		}
		rep := compiler.AnalyzePlan(prog, verify.Options{})
		for _, d := range rep.Diagnostics {
			lines = append(lines, fmt.Sprintf("%s: %s", spec.Name, d))
		}
		if rep.Truncated {
			lines = append(lines, fmt.Sprintf("%s: walk truncated at %d paths; proofs degraded", spec.Name, rep.Paths))
		}
	}
	return lines, nil
}

func main() {
	tool := &lint.Tool{
		Name: "htverify",
		Doc:  "symbolically verify the experiment corpus",
		Checkers: []lint.Checker{
			{
				Name: "verify",
				Doc:  "path-sensitive symbolic verification of every compiled plan",
				Run:  runVerify,
			},
		},
	}
	os.Exit(tool.Main(os.Args[1:]))
}
