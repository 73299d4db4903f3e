// Command htbench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated testbed and prints the results in
// paper-style rows. It is the viewer of the 18 experiments; what the suite
// costs in host time and memory is measured by `go run ./benchmark`, and the
// headlines are pinned by TestAllExperimentsRun against
// testdata/headlines.golden.
//
// Usage:
//
//	htbench [-quick] [-seed N] [-run substr] [-simworkers N]
//	        [-trace file] [-cpuprofile file] [-memprofile file]
//
// -run selects experiments whose ID contains the substring (e.g. "Fig. 11"
// or "Table"); the default runs everything in paper order. Experiments fan
// out across GOMAXPROCS goroutines (set GOMAXPROCS=1 in the environment for
// a sequential suite; results are bit-identical either way — each experiment
// owns its simulator and seeded RNG streams). -simworkers > 1 additionally
// parallelizes INSIDE each experiment: device topologies run on the
// conservative parallel discrete-event engine (one logical process per
// device) and CPU-bound sweeps on a same-width pool, again with
// bit-identical results.
//
// -trace runs the observability sample workload (internal/experiments.
// TraceSample) after the suite and writes its per-packet lifecycle trace as
// Chrome trace-event JSON loadable in Perfetto. The suite itself always
// runs untraced, so the printed wall clocks never include tracing overhead.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/hypertester/hypertester/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "shrink measurement windows and sweeps")
	seed := flag.Int64("seed", 1, "experiment seed")
	run := flag.String("run", "", "only run experiments whose ID contains this substring")
	simWorkers := flag.Int("simworkers", 1, "per-experiment worker budget: >1 runs testbeds on the parallel LP engine")
	tracePath := flag.String("trace", "", "after the suite, run the traced sample workload and write a Perfetto-loadable Chrome trace JSON here")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here (captured after the run)")
	flag.Parse()

	if *simWorkers < 1 {
		*simWorkers = 1
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, SimWorkers: *simWorkers}

	var specs []experiments.Spec
	for _, sp := range experiments.Specs() {
		if *run == "" || strings.Contains(sp.ID, *run) {
			specs = append(specs, sp)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -run %q\n", *run)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Wrap each spec to record its own wall clock without perturbing the
	// runner.
	// Each spec also gets its own SimStats, so the line under its table can
	// say what its testers cost the scheduler: events executed, next to the
	// idle recirculation passes the loop model accounted instead.
	walls := make([]time.Duration, len(specs))
	stats := make([]experiments.SimStats, len(specs))
	wrapped := make([]experiments.Spec, len(specs))
	for i, sp := range specs {
		i, sp := i, sp
		wrapped[i] = experiments.Spec{ID: sp.ID, Fn: func(c experiments.Config) *experiments.Result {
			c.Stats = &stats[i]
			t0 := time.Now()
			res := sp.Fn(c)
			walls[i] = time.Since(t0)
			return res
		}}
	}

	t0 := time.Now()
	results := experiments.Run(cfg, wrapped)
	total := time.Since(t0)

	for i, res := range results {
		if _, _, err := experiments.Headline(res); err != nil {
			fmt.Fprintf(os.Stderr, "headline: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		if events, loop := stats[i].Totals(); events > 0 {
			fmt.Printf("(%.1fs; tester: %d events executed, %d idle passes elided, %d loop hops live, %d wakes, %d ties of which %d residual)\n\n",
				walls[i].Seconds(), events, loop.ElidedPasses, loop.LiveHops, loop.Wakes, loop.Ties, loop.ResidualTies)
		} else {
			fmt.Printf("(%.1fs)\n\n", walls[i].Seconds())
		}
	}
	fmt.Printf("%d experiments in %.1fs (%d workers)\n", len(results), total.Seconds(),
		min(runtime.GOMAXPROCS(0), len(results)))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	// The traced sample runs after the suite so tracing overhead never
	// reaches the wall clocks printed above.
	if *tracePath != "" {
		ts, _, err := experiments.TraceSample(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := ts.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d records across %d streams)\n", *tracePath, ts.Len(), len(ts.Traces()))
	}
}
