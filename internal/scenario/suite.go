package scenario

import (
	"encoding/json"
	"fmt"
	"runtime"

	"github.com/hypertester/hypertester/internal/netsim"
)

// SuiteResult is the machine-readable outcome of a suite run (the -results
// file the CLI writes).
type SuiteResult struct {
	Suite string `json:"suite"`
	// SimWorkers echoes the engine the suite ran on (0 = each scenario's
	// own topology setting).
	SimWorkers int          `json:"sim_workers"`
	Pass       bool         `json:"pass"`
	Passed     int          `json:"passed"` // scenarios fully passing
	Failed     int          `json:"failed"`
	Scenarios  []*RunResult `json:"scenarios"`
}

// Encode renders the result as indented JSON.
func (r *SuiteResult) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// RunSuite executes every scenario of a suite across a GOMAXPROCS-bounded
// pool (netsim.ParMap — the experiments' sweeps use it too) with the per-scenario
// runner run (Run, or a wrapper around it) and reports them in input order.
// workers overrides each scenario's SimWorkers when > 0. A scenario that
// cannot run — compile failure, panic — fails alone, with the error or the
// panic value in its own RunResult.Err; it fails the suite, never the
// process. Validation rejects every input known to make Run panic, so the
// containment tests bring their own panicking runner.
func RunSuite(suite *Suite, workers int, run func(*Scenario, int) (*RunResult, error)) *SuiteResult {
	out := &SuiteResult{Suite: suite.Name, SimWorkers: workers, Pass: true,
		Scenarios: make([]*RunResult, len(suite.Scenarios))}
	netsim.ParMap(runtime.GOMAXPROCS(0), len(suite.Scenarios), func(i int) {
		out.Scenarios[i] = runContained(suite.Scenarios[i], workers, run)
	})
	for _, r := range out.Scenarios {
		if r.Pass && r.Err == "" {
			out.Passed++
		} else {
			out.Failed++
			out.Pass = false
		}
	}
	return out
}

// runContained runs one scenario, turning an error or a panic into a failed
// result. The panic value is reported without its stack: results must render
// identically across engines and worker counts, and goroutine stacks do not.
func runContained(sc *Scenario, workers int, run func(*Scenario, int) (*RunResult, error)) (r *RunResult) {
	failed := func(msg string) *RunResult {
		return &RunResult{Name: sc.Name, Title: sc.Title, Err: msg}
	}
	defer func() {
		if p := recover(); p != nil {
			r = failed(fmt.Sprintf("scenario panicked: %v", p))
		}
	}()
	r, err := run(sc, workers)
	if err != nil {
		return failed(err.Error())
	}
	return r
}
