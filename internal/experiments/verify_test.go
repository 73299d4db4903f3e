package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the goldens: the witness corpus under testdata/witness and the tables in EXPERIMENTS.md")

// TestCorpusVerifiesClean runs the path-sensitive verifier over all 18
// experiment programs: no diagnostic of any severity (no false positives,
// no warnings), and none of the walks may hit the path cap, which would
// silently weaken every proof to "unknown".
func TestCorpusVerifiesClean(t *testing.T) {
	specs := Programs()
	if len(specs) != 18 {
		t.Fatalf("corpus has %d programs, want 18", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			prog, err := spec.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep := compiler.AnalyzePlan(prog, verify.Options{})
			for _, d := range rep.Diagnostics {
				t.Errorf("diagnostic on a corpus program: %s", d)
			}
			if rep.Truncated {
				t.Errorf("walk truncated at %d paths; proofs degraded", rep.Paths)
			}
			if rep.Paths == 0 {
				t.Error("no feasible paths — the verifier proved the program unreachable")
			}
			// table5_ipscan sweeps a /13 (2^19 addresses) under a 1<<16
			// cap: the one corpus query knowingly compiled without §5.2's
			// false-positive-free guarantee. Any other truncation is news.
			for _, q := range prog.Queries {
				if want := spec.Name == "table5_ipscan"; q.HeaderSpaceTruncated != want {
					t.Errorf("query %s: header space truncated=%v (%d tuples), want %v",
						q.Query.Name, q.HeaderSpaceTruncated, q.HeaderSpaceSize, want)
				}
			}
		})
	}
}

// witnessDump renders one program's witnesses plus the naive-interpreter
// outcome for each, deterministically, for the golden corpus.
func witnessDump(t *testing.T, spec ProgramSpec) string {
	t.Helper()
	prog, err := spec.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep := compiler.AnalyzePlan(prog, verify.Options{Witnesses: true})
	if len(rep.Witnesses) == 0 {
		t.Fatal("no witnesses extracted")
	}
	var b strings.Builder
	for i := range rep.Witnesses {
		wit := rep.Witnesses[i]
		entries := compiler.SyntheticEntries(prog.P4, wit)

		// ReplayPlan normalizes the witness in place and pins pkt_len to
		// the serialized frame, so the naive replay below and the golden
		// dump both see the settled input.
		got, err := compiler.ReplayPlan(prog, &wit, entries)
		if err != nil {
			t.Fatalf("witness %d: replay: %v", i, err)
		}
		in := &verify.Interp{Prog: prog.P4, Entries: entries}
		want := in.Run(wit)
		if got.Canonical() != want.Canonical() {
			t.Errorf("witness %d diverges (path %v):\n--- compiled ---\n%s--- naive ---\n%s",
				i, wit.Path, got.Canonical(), want.Canonical())
		}

		fmt.Fprintf(&b, "# %s witness %d\n", spec.Name, i)
		fmt.Fprintf(&b, "path=%s\n", strings.Join(wit.Path, ";"))
		fmt.Fprintf(&b, "headers=%s\n", strings.Join(wit.Headers, ","))
		names := make([]string, 0, len(wit.Fields))
		for n := range wit.Fields {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "field %s=%d\n", n, wit.Fields[n])
		}
		b.WriteString("--- outcome ---\n")
		b.WriteString(want.Canonical())
		b.WriteString("===\n")
	}
	return b.String()
}

// TestWitnessDifferential is the committed CI gate: every witness packet
// the verifier concretizes from every corpus program must replay
// bit-identically through the compiled ASIC plan and the naive IR
// interpreter, and the whole transcript must match the golden corpus
// under testdata/witness (regenerate with `go test -run Witness -update`).
func TestWitnessDifferential(t *testing.T) {
	for _, spec := range Programs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			dump := witnessDump(t, spec)
			golden := filepath.Join("testdata", "witness", spec.Name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(dump), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden corpus missing (run `go test ./internal/experiments -run Witness -update`): %v", err)
			}
			if string(wantBytes) != dump {
				t.Errorf("witness corpus drifted from %s; rerun with -update if the change is intended", golden)
			}
		})
	}
}
