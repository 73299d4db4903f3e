package scenario_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/scenario"
	"github.com/hypertester/hypertester/internal/verify"
)

// TestStarterFileInSync pins that the committed example suite is exactly
// EncodeSuite(Library()) — regenerate examples/suites/starter.json after
// editing library.go (make suite does this check in CI).
func TestStarterFileInSync(t *testing.T) {
	want, err := scenario.EncodeSuite(scenario.Library())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../examples/suites/starter.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("examples/suites/starter.json is out of sync with scenario.Library(); regenerate it from EncodeSuite(Library())")
	}
}

// TestPaperSmokeSuite runs the second committed example end to end: it
// loads .nt program files from tasks/ (the file-reference path) and its
// checks — including the byte-exact golden trace oracle — must pass on
// both engines.
func TestPaperSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the example suite twice")
	}
	suite, err := scenario.Load("../../examples/suites/paper-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res := scenario.RunSuite(suite, workers, scenario.Run)
		if !res.Pass {
			for _, sc := range res.Scenarios {
				if sc.Err != "" {
					t.Errorf("workers=%d: %s: %s", workers, sc.Name, sc.Err)
				}
				for _, c := range sc.Checks {
					if !c.Pass {
						t.Errorf("workers=%d: %s: check %q failed: got %s, %s",
							workers, sc.Name, c.Name, c.Got, c.Detail)
					}
				}
			}
		}
	}
}

// TestEveryShippedProgramWalksWithHeadroom: the symbolic walk is the compile
// gate's only safety verdict and a truncated walk is a compile error, so
// every program the repo ships — the 18-program experiment corpus, the
// scenario library, the committed suites and tasks/*.nt — must finish its
// walk with at least 16x headroom under the default path cap. A program
// that creeps towards the cap shows up here long before users hit the
// error.
func TestEveryShippedProgramWalksWithHeadroom(t *testing.T) {
	const maxPaths = 8192 / 16 // the verifier's path cap / headroom

	corpus := experiments.Programs()
	suites := []*scenario.Suite{scenario.Library()}
	files, err := filepath.Glob("../../examples/suites/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no suite files: %v", err)
	}
	for _, f := range files {
		s, err := scenario.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		suites = append(suites, s)
	}
	for _, s := range suites {
		for _, sc := range s.Scenarios {
			corpus = append(corpus, experiments.ProgramSpec{Name: s.Name + "/" + sc.Name, Src: string(sc.Program.Source)})
		}
	}
	tasks, err := filepath.Glob("../../tasks/*.nt")
	if err != nil || len(tasks) == 0 {
		t.Fatalf("no task files: %v", err)
	}
	for _, f := range tasks {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, experiments.ProgramSpec{Name: f, Src: string(src)})
	}

	for _, spec := range corpus {
		prog, err := spec.Compile()
		if err != nil {
			t.Errorf("compile: %v", err)
			continue
		}
		rep := compiler.AnalyzePlan(prog, verify.Options{})
		if rep.Truncated || rep.Paths == 0 || rep.Paths > maxPaths {
			t.Errorf("%s: %d feasible paths (truncated=%v), want 1..%d", spec.Name, rep.Paths, rep.Truncated, maxPaths)
		}
	}
}
