package experiments

import (
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/obs"
)

// TestTraceDifferential is the trace oracle: the full per-packet lifecycle
// trace of the sample workload must be byte-identical between the sequential
// reference engine (SimWorkers=1) and the parallel LP engine (SimWorkers=4).
// This is a far stricter check than comparing experiment headlines — every
// parse, SALU access, replication copy, TM transit, recirculation, deparse
// and wire event must land on the same virtual instant in the same order.
// CI also runs it under -race, which doubles as a data-race check on the
// trace plumbing itself.
func TestTraceDifferential(t *testing.T) {
	run := func(workers int) *obs.TraceSet {
		t.Helper()
		ts, _, err := TraceSample(Config{Quick: true, Seed: 1, SimWorkers: workers})
		if err != nil {
			t.Fatalf("SimWorkers=%d: %v", workers, err)
		}
		return ts
	}
	seq := run(1)
	par := run(4)

	if seq.Len() == 0 {
		t.Fatal("sequential trace is empty; the oracle is vacuous")
	}
	// The workload must actually cross every emission point it claims to
	// (digests and drops excepted: no queries, line-rate sinks) — otherwise
	// a silently detached tracer would still pass the diff.
	want := []obs.Kind{
		obs.KindParse, obs.KindSALU, obs.KindTMEnqueue, obs.KindTMDequeue,
		obs.KindMcastCopy, obs.KindRecirculate, obs.KindDeparse,
		obs.KindWireTx, obs.KindWireRx,
	}
	seen := make(map[obs.Kind]bool)
	for _, r := range seq.Merged() {
		seen[r.Kind] = true
	}
	for _, k := range want {
		if !seen[k] {
			t.Errorf("sequential trace has no %v records; workload no longer exercises that stage", k)
		}
	}

	a, b := seq.Canonical(), par.Canonical()
	if a == b {
		return
	}
	// Locate the first diverging line for a readable failure.
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			t.Fatalf("trace diverges at line %d of %d/%d:\n  SimWorkers=1: %s\n  SimWorkers=4: %s",
				i+1, len(la), len(lb), la[i], lb[i])
		}
	}
	t.Fatalf("traces diverge in length: %d vs %d lines", len(la), len(lb))
}

// TestTraceWorkerCountInvariance extends the oracle across several worker
// counts: the canonical trace must not depend on how many goroutines the LP
// engine schedules onto.
func TestTraceWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run differential")
	}
	want := ""
	for _, w := range []int{2, 3, 8} {
		ts, _, err := TraceSample(Config{Quick: true, Seed: 3, SimWorkers: w})
		if err != nil {
			t.Fatalf("SimWorkers=%d: %v", w, err)
		}
		got := ts.Canonical()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("SimWorkers=%d trace differs from SimWorkers=2", w)
		}
	}
}

// TestTraceDoesNotPerturbHeadlines pins the "observational only" contract:
// running the full quick suite with tracing enabled must render every one of
// the 18 experiment results byte-identically to an untraced run. Streams are
// capped so the traced run's memory stays bounded; the cap is count-based
// and therefore deterministic too.
func TestTraceDoesNotPerturbHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run")
	}
	plain := sequential(Config{Quick: true, Seed: 1}, Specs())

	ts := obs.NewTraceSet()
	ts.SetLimit(4096)
	traced := sequential(Config{Quick: true, Seed: 1, Trace: ts}, Specs())

	if ts.Len() == 0 {
		t.Error("traced suite recorded nothing; Config.Trace is not wired through")
	}
	if len(plain) != len(traced) {
		t.Fatalf("plain ran %d experiments, traced %d", len(plain), len(traced))
	}
	for i := range plain {
		if p, q := plain[i].String(), traced[i].String(); p != q {
			t.Errorf("%s: enabling tracing changed the result:\n--- untraced\n%s\n--- traced\n%s",
				plain[i].ID, p, q)
		}
	}
}

// TestTraceSampleRegistry sanity-checks the metrics half of TraceSample: the
// registry must expose switch, sink, and scheduler metrics, and — on the
// parallel engine — per-LP engine stats, with plausible values.
func TestTraceSampleRegistry(t *testing.T) {
	_, reg, err := TraceSample(Config{Quick: true, Seed: 1, SimWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"hypertester.pipeline_drops",
		"hypertester.port0.tx_packets",
		"sink0.rx_packets",
		"sim.tester.executed",
		"engine.workers",
		"engine.lp.tester.executed",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("registry snapshot missing %q", name)
		}
	}
	if v, _ := snap["sink0.rx_packets"].(float64); !(v > 0) {
		t.Errorf("sink0.rx_packets = %v, want > 0", snap["sink0.rx_packets"])
	}
	if v, _ := snap["engine.workers"].(float64); v != 4 {
		t.Errorf("engine.workers = %v, want 4", snap["engine.workers"])
	}
	if v, _ := snap["engine.epochs"].(float64); !(v > 0) {
		t.Errorf("engine.epochs = %v, want > 0", snap["engine.epochs"])
	}
}
