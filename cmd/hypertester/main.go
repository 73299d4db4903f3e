// Command hypertester is the operator CLI: it loads a testing task written
// in the NTAPI text format (§4), deploys it on the simulated programmable
// switch, runs it against a chosen device under test, and prints the query
// reports — the §5.4 workflow end to end. With -suite it instead loads a
// declarative scenario suite (JSON), runs every scenario with its checks,
// and reports per-scenario pass/fail plus an optional machine-readable
// results file.
//
// Usage:
//
//	hypertester -task webtest.nt -dut httpfarm -duration 20ms
//	hypertester -task throughput.nt -p4        # dump the generated P4
//	hypertester -suite examples/suites/starter.json -results results.json
//
// A -task run is a scenario synthesised from the flags: it is validated,
// wired and run by the scenario package's rig, so it knows the same devices
// under test as a suite — sink (count only), reflector (bounce traffic back),
// httpfarm (stateful TCP/HTTP servers), scantarget (a probeable address
// space), hhsink (per-flow counts vs a Count-Min shadow) — and the same
// bounds: port rates within [0.001, 100000] Gbps, a duration of at most one
// hour of virtual time.
//
// Exit codes: 0 success, 1 suite checks failed, 2 invalid flags or
// unloadable inputs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/scenario"
	"github.com/hypertester/hypertester/internal/testbed"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, scenario.Run)
}

// runWith is run with the per-scenario runner of -suite mode supplied by the
// caller: the panic-containment test brings a runner that panics (no
// loadable suite makes scenario.Run itself panic any more).
func runWith(args []string, stdout, stderr io.Writer, runScenario func(*scenario.Scenario, int) (*scenario.RunResult, error)) int {
	fs := flag.NewFlagSet("hypertester", flag.ContinueOnError)
	fs.SetOutput(stderr)
	taskFile := fs.String("task", "", "NTAPI task file (.nt)")
	suiteFile := fs.String("suite", "", "scenario suite file (JSON): run its scenarios instead of a -task")
	resultsFile := fs.String("results", "", "write machine-readable suite results (JSON) here")
	ports := fs.String("ports", "100", "comma-separated port rates in Gbps")
	duration := fs.Duration("duration", 5*time.Millisecond, "virtual run duration")
	dutKind := fs.String("dut", "sink", "device under test: "+strings.Join(scenario.DUTKinds, "|"))
	simWorkers := fs.Int("simworkers", 0, "suite mode: run topologies on the parallel engine with this many workers (0 = per-scenario setting)")
	dumpP4 := fs.Bool("p4", false, "print the generated P4-14 program and exit")
	dumpP416 := fs.Bool("p4_16", false, "print the generated P4-16 (TNA) program and exit")
	pcapOut := fs.String("pcap", "", "write frames received by sink DUTs to this pcap file")
	resources := fs.Bool("resources", false, "print estimated data-plane resource usage")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *suiteFile != "" {
		// A flag suite mode would never read is an error, not a no-op: each
		// scenario carries its own program, topology, traffic and seed.
		var unread []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "suite" && f.Name != "results" && f.Name != "simworkers" {
				unread = append(unread, "-"+f.Name)
			}
		})
		if len(unread) > 0 {
			fmt.Fprintf(stderr, "hypertester: suite mode ignores %s: each scenario carries its own program, topology, traffic and seed\n", strings.Join(unread, ", "))
			return 2
		}
		if *simWorkers < 0 {
			fmt.Fprintf(stderr, "hypertester: -simworkers %d is negative\n", *simWorkers)
			return 2
		}
		return runSuite(*suiteFile, *resultsFile, *simWorkers, stdout, stderr, runScenario)
	}

	if *taskFile == "" {
		fmt.Fprintln(stderr, "hypertester: -task or -suite is required")
		fs.Usage()
		return 2
	}
	rates, err := parsePorts(*ports)
	if err != nil {
		fmt.Fprintf(stderr, "hypertester: %v\n", err)
		return 2
	}
	// The invocation as a scenario: the loader's bounds apply to the flags.
	name := strings.TrimSuffix(filepath.Base(*taskFile), filepath.Ext(*taskFile))
	sc := &scenario.Scenario{
		Name: name,
		Topology: scenario.Topology{Ports: rates, DUT: *dutKind,
			CableDelayNs: testbed.DefaultCableDelay.Nanoseconds()},
		Program: scenario.Program{Name: name, File: *taskFile},
		Traffic: scenario.Traffic{WindowUs: float64(duration.Nanoseconds()) / 1e3, Seed: *seed},
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintf(stderr, "hypertester: %v\n", err)
		return 2
	}
	// A flag this invocation would never read is an error, not a no-op.
	switch {
	case *resultsFile != "":
		fmt.Fprintln(stderr, "hypertester: -results needs -suite (a single task writes no results file)")
		return 2
	case *simWorkers != 0:
		fmt.Fprintln(stderr, "hypertester: -simworkers needs -suite (a single task runs on the sequential engine)")
		return 2
	case *pcapOut != "" && *dutKind != scenario.DUTSink:
		fmt.Fprintf(stderr, "hypertester: -pcap captures at sink DUTs only, not -dut %s\n", *dutKind)
		return 2
	}
	src, err := os.ReadFile(*taskFile)
	if err != nil {
		fmt.Fprintf(stderr, "hypertester: read task: %v\n", err)
		return 2
	}

	// Untraced, so idle template passes stay in the switch's loop model.
	rig, err := scenario.Build(sc.Topology, name, string(src), sc.Traffic.Seed, 1, nil)
	if err != nil {
		fmt.Fprintf(stderr, "hypertester: compile: %v\n", err)
		return 2
	}
	ht := rig.Tester

	switch {
	case *dumpP4:
		fmt.Fprint(stdout, ht.GeneratedP4())
		return 0
	case *dumpP416:
		fmt.Fprint(stdout, p4ir.PrintP416(ht.Program.P4))
		return 0
	case *resources:
		fmt.Fprintf(stdout, "resources (%% of switch.p4): %v\n", ht.Resources())
		return 0
	}

	if *pcapOut != "" {
		for _, d := range rig.DUTs {
			d.Sink.EnableCapture(1 << 20)
		}
	}
	rig.Run(0, netsim.Duration(duration.Nanoseconds())*netsim.Nanosecond)

	fmt.Fprintf(stdout, "task %q ran for %v of virtual time\n\n", name, *duration)
	for _, tmpl := range ht.Program.Templates {
		fmt.Fprintf(stdout, "trigger %s: fired %d times\n", tmpl.Trigger.Name, ht.Sender.FiredCount(tmpl.ID))
	}
	fmt.Fprintln(stdout)
	for _, rep := range ht.Reports() {
		fmt.Fprintf(stdout, "query %s (%s): %d matches, %d bytes\n", rep.Query, rep.Kind, rep.Matches, rep.Bytes)
		if rep.Kind == "distinct" {
			fmt.Fprintf(stdout, "  distinct keys: %d\n", rep.Distinct)
		}
		if rep.DelaySamples > 0 {
			fmt.Fprintf(stdout, "  delay: mean %.1fns min %.1fns max %.1fns over %d samples\n",
				rep.DelayMeanNs, rep.DelayMinNs, rep.DelayMaxNs, rep.DelaySamples)
		}
		if len(rep.Results) > 0 && len(rep.Results) <= 10 {
			for _, r := range rep.Results {
				fmt.Fprintf(stdout, "  key %v -> %d\n", r.Key, r.Value)
			}
		} else if len(rep.Results) > 10 {
			fmt.Fprintf(stdout, "  (%d keys; first: %v -> %d)\n",
				len(rep.Results), rep.Results[0].Key, rep.Results[0].Value)
		}
	}

	// The DUTs' own view, under the names suite checks use.
	m := obs.NewRegistry()
	for _, d := range rig.DUTs {
		d.Describe(m)
	}
	fmt.Fprintln(stdout)
	for _, x := range m.All() {
		fmt.Fprintf(stdout, "%s = %s\n", x.Name, x.Text)
	}

	if *pcapOut != "" {
		var frames []testbed.CapturedFrame
		for _, d := range rig.DUTs {
			frames = append(frames, d.Sink.Captured()...)
		}
		f, err := os.Create(*pcapOut)
		if err != nil {
			fmt.Fprintf(stderr, "hypertester: pcap: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := testbed.WritePcap(f, frames); err != nil {
			fmt.Fprintf(stderr, "hypertester: pcap: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d frames to %s\n", len(frames), *pcapOut)
	}
	return 0
}

// parsePorts parses the -ports list; whether the rates make a buildable
// switch is for scenario validation to say.
func parsePorts(s string) ([]float64, error) {
	var rates []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		g, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad port rate %q", p)
		}
		rates = append(rates, g)
	}
	return rates, nil
}

// runSuite loads and runs a scenario suite, printing per-scenario pass/fail
// and optionally writing the machine-readable results file.
func runSuite(path, resultsPath string, workers int, stdout, stderr io.Writer,
	runScenario func(*scenario.Scenario, int) (*scenario.RunResult, error)) int {
	suite, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintf(stderr, "hypertester: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "suite %q: %d scenarios", suite.Name, len(suite.Scenarios))
	if workers > 1 {
		fmt.Fprintf(stdout, " (parallel engine, %d workers)", workers)
	}
	fmt.Fprintln(stdout)

	res := scenario.RunSuiteWith(suite, workers, runScenario)
	for _, sc := range res.Scenarios {
		verdict := "PASS"
		if sc.Err != "" || !sc.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(stdout, "%-6s %s (%d/%d checks)\n", verdict, sc.Name, sc.Passed, sc.Passed+sc.Failed)
		if sc.Err != "" {
			fmt.Fprintf(stdout, "       error: %s\n", sc.Err)
		}
		for _, c := range sc.Checks {
			if !c.Pass {
				fmt.Fprintf(stdout, "       check %q: got %s, %s\n", c.Name, c.Got, c.Detail)
			}
		}
	}
	fmt.Fprintf(stdout, "suite %q: %d passed, %d failed\n", res.Suite, res.Passed, res.Failed)

	if resultsPath != "" {
		data, err := res.Encode()
		if err != nil {
			fmt.Fprintf(stderr, "hypertester: encode results: %v\n", err)
			return 1
		}
		if err := os.WriteFile(resultsPath, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "hypertester: write results: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "results written to %s\n", resultsPath)
	}
	if !res.Pass {
		return 1
	}
	return 0
}
