package scenario

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// quickScenario is a cheap single-port scenario for runner-level tests.
func quickScenario(name string, checks []Check) *Scenario {
	return &Scenario{
		Name:     name,
		Topology: Topology{Ports: []float64{100}, DUT: DUTSink},
		Program: Program{Source: `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set(length, 64)
    .set(port, 0)
`},
		Traffic: Traffic{WarmupUs: 5, WindowUs: 10, Seed: 1},
		Checks:  checks,
	}
}

// TestRunSuite covers the suite runner end to end: passing checks, failing
// checks, and a scenario whose program does not compile — all reported in
// input order, none aborting the suite.
func TestRunSuite(t *testing.T) {
	bad := quickScenario("wont-compile", nil)
	bad.Program.Source = "T1 = trigger(.set(port, 0)\n"
	suite := &Suite{Name: "mixed", Scenarios: []*Scenario{
		quickScenario("passes", []Check{
			{Kind: CheckThreshold, Metric: "sink0.rx_packets", Op: ">", Value: 0},
		}),
		quickScenario("fails", []Check{
			{Kind: CheckThreshold, Metric: "sink0.rx_packets", Op: "<", Value: 0},
		}),
		bad,
	}}
	res := RunSuite(suite, 0, Run)
	if res.Pass || res.Passed != 1 || res.Failed != 2 {
		t.Fatalf("suite tally = pass=%v %d/%d, want fail 1/2", res.Pass, res.Passed, res.Failed)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("got %d scenario results", len(res.Scenarios))
	}
	for i, want := range []string{"passes", "fails", "wont-compile"} {
		if res.Scenarios[i].Name != want {
			t.Errorf("result %d = %s, want %s (input order lost)", i, res.Scenarios[i].Name, want)
		}
	}
	if !res.Scenarios[0].Pass || res.Scenarios[1].Pass {
		t.Errorf("check verdicts wrong: %+v %+v", res.Scenarios[0], res.Scenarios[1])
	}
	if res.Scenarios[2].Err == "" {
		t.Errorf("compile failure not reported: %+v", res.Scenarios[2])
	}

	// The result must round-trip through its machine-readable encoding.
	data, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back SuiteResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("results file does not re-parse: %v", err)
	}
	if back.Passed != 1 || back.Failed != 2 || len(back.Scenarios) != 3 {
		t.Errorf("round-tripped tally diverges: %+v", back)
	}
}

// TestRunSuiteContainsPanic: a scenario that panics fails alone and names its
// panic value in its own result — the only place an operator can read it.
// Neighbours complete, input order is kept. The pool is forced concurrent so
// the recovery is exercised on a worker goroutine, where an uncontained panic
// would take the process down.
func TestRunSuiteContainsPanic(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	run := func(sc *Scenario, workers int) (*RunResult, error) {
		if sc.Name == "boom" {
			panic("synthetic scenario failure")
		}
		return Run(sc, workers)
	}
	flows := []Check{{Kind: CheckThreshold, Metric: "sink0.rx_packets", Op: ">", Value: 0}}
	suite := &Suite{Name: "panics", Scenarios: []*Scenario{
		quickScenario("before", flows),
		quickScenario("boom", flows),
		quickScenario("after", flows),
	}}
	res := RunSuite(suite, 0, run)
	if res.Pass || res.Passed != 2 || res.Failed != 1 {
		t.Fatalf("suite tally = pass=%v %d/%d, want fail 2/1", res.Pass, res.Passed, res.Failed)
	}
	for i, want := range []string{"before", "boom", "after"} {
		if res.Scenarios[i].Name != want {
			t.Fatalf("result %d = %s, want %s (input order lost)", i, res.Scenarios[i].Name, want)
		}
	}
	for _, i := range []int{0, 2} {
		if r := res.Scenarios[i]; !r.Pass || r.Err != "" || r.Passed != 1 {
			t.Errorf("neighbour %s did not complete and pass: %+v", r.Name, r)
		}
	}
	boom := res.Scenarios[1]
	if boom.Pass || !strings.Contains(boom.Err, "synthetic scenario failure") {
		t.Errorf("panic value missing from the scenario's own result: pass=%v err=%q", boom.Pass, boom.Err)
	}
}
