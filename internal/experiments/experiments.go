// Package experiments reproduces every table and figure of the paper's
// evaluation (§7) on the simulated testbed. Each experiment returns a
// structured Result whose String renders the same rows/series the paper
// reports; cmd/htbench prints them all and the repository's bench suite
// wraps each one in a testing.B benchmark.
//
// Quick mode shrinks measurement windows and sweep densities so the whole
// suite runs in seconds; full mode uses longer windows for tighter
// statistics. Shapes and ratios are stable across both.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/scenario"
	"github.com/hypertester/hypertester/internal/testbed"

	hypertester "github.com/hypertester/hypertester"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks windows and sweeps.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// SimWorkers > 1 opts an experiment's testbed into the conservative
	// parallel discrete-event engine (one logical process per device) and
	// its CPU-bound sweeps into a same-width worker pool. Results are
	// bit-identical across any worker count; <= 1 means the sequential
	// reference engine.
	SimWorkers int
	// Trace, when non-nil, records per-packet lifecycle traces for every
	// device an experiment builds through htGenerate (the rig creates the
	// streams in topology order, so the merged trace is bit-identical
	// across engines and worker counts). Tracing is
	// observational only: results are unchanged. Experiments that fan out
	// over netsim.ParMap leave it unset on inner runs (seq() strips it) — a
	// single TraceSet is not safe for concurrent topologies.
	Trace *obs.TraceSet
	// Stats, when non-nil, collects every tester the experiment builds so
	// its scheduler cost can be read afterwards (htbench prints it).
	// Unlike Trace it survives seq(): it only reads counters once the run
	// is over.
	Stats *SimStats
}

// SimStats says where an experiment's tester passes went: events the tester's
// scheduler executed, next to the recirculation passes its loop model
// accounted without scheduling them (DESIGN.md §9.6).
type SimStats struct {
	mu      sync.Mutex
	testers []*hypertester.Tester
}

// track registers a tester; a nil receiver ignores it.
func (s *SimStats) track(ht *hypertester.Tester) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.testers = append(s.testers, ht)
	s.mu.Unlock()
}

// Totals sums the tracked testers' counters. Call once the experiment is
// over.
func (s *SimStats) Totals() (events uint64, loop asic.LoopStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ht := range s.testers {
		events += ht.Sim.Executed
		st := ht.Switch.LoopStats()
		loop.ElidedPasses += st.ElidedPasses
		loop.Wakes += st.Wakes
		loop.LiveHops += st.LiveHops
		loop.Ties += st.Ties
		loop.ResidualTies += st.ResidualTies
		loop.CatchupMaxPasses = max(loop.CatchupMaxPasses, st.CatchupMaxPasses)
	}
	return events, loop
}

// simWorkers normalizes the worker budget.
func (c Config) simWorkers() int {
	if c.SimWorkers < 1 {
		return 1
	}
	return c.SimWorkers
}

// seq returns the config with parallelism stripped — for inner measurements
// that an outer netsim.ParMap already spreads across the worker budget. The
// trace set is stripped with it: inner runs execute concurrently, and a
// TraceSet is owned by a single topology.
func (c Config) seq() Config {
	c.SimWorkers = 1
	c.Trace = nil
	return c
}

// Row is one line of a result table.
type Row struct {
	Label  string
	Values []string
}

// Result is one experiment's outcome.
type Result struct {
	ID      string // e.g. "Table 5", "Fig. 9a"
	Title   string
	Columns []string
	Rows    []Row
	// Notes carries the paper-vs-measured commentary.
	Notes []string
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns)+1)
	update := func(i int, s string) {
		if len(s) > widths[i] {
			widths[i] = len(s)
		}
	}
	update(0, "")
	for i, c := range r.Columns {
		update(i+1, c)
	}
	for _, row := range r.Rows {
		update(0, row.Label)
		for i, v := range row.Values {
			if i+1 < len(widths) {
				update(i+1, v)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	b.WriteString(pad("", widths[0]))
	for i, c := range r.Columns {
		b.WriteString("  " + pad(c, widths[i+1]))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		b.WriteString(pad(row.Label, widths[0]))
		for i, v := range row.Values {
			if i+1 < len(widths) {
				b.WriteString("  " + pad(v, widths[i+1]))
			}
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// htGenerate runs a HyperTester generation task against per-port sinks and
// returns them after the measurement window (warm-up excluded). The testbed
// is the scenario rig's — tester on one logical process, every sink on its
// own, zero-length cables — so with cfg.SimWorkers > 1 it runs on the
// parallel engine; callers that advance virtual time afterwards must do so
// through the returned Partition (not ht.RunFor, which only knows the
// tester's clock).
func htGenerate(cfg Config, src string, portGbps []float64, seed int64,
	warmup, window netsim.Duration, record bool) ([]*testbed.Sink, *hypertester.Tester, *testbed.Partition, error) {

	rig, err := scenario.Build(scenario.Topology{Ports: portGbps, DUT: scenario.DUTSink},
		"exp", src, seed, cfg.simWorkers(), cfg.Trace)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Stats.track(rig.Tester)
	sinks := make([]*testbed.Sink, len(rig.DUTs))
	for i, d := range rig.DUTs {
		sinks[i] = d.Sink
		sinks[i].RecordTimestamps = record
	}
	rig.Run(warmup, window)
	return sinks, rig.Tester, rig.Partition, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
