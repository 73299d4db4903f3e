package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/scenario"
)

// TestOneRigOneTestbed: a scenario and a paper experiment that describe the
// same testbed — program, ports, seed, warm-up, window — are the same run. The
// observability workload goes once through scenario.Run and once through
// htGenerate with a trace attached; the sinks must have counted the same
// frames and the canonical traces must hash alike, on both engines. It is the
// rig that makes this true: the tester switch's name seeds the
// recirculation-jitter stream, so a second wiring that named the switch
// differently ("tester" vs "hypertester") differs in every record after the
// first loop pass.
func TestOneRigOneTestbed(t *testing.T) {
	ports := []float64{100, 100, 100}
	const seed, warmupUs, windowUs = 7, 30, 40

	for _, workers := range []int{1, 4} {
		res, err := scenario.Run(&scenario.Scenario{
			Name:     "rig",
			Topology: scenario.Topology{Ports: ports, DUT: scenario.DUTSink},
			Program:  scenario.Program{Source: traceSampleSrc},
			Traffic:  scenario.Traffic{WarmupUs: warmupUs, WindowUs: windowUs, Seed: seed},
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		metric := make(map[string]obs.Metric, len(res.Metrics))
		for _, m := range res.Metrics {
			metric[m.Name] = m
		}

		ts := obs.NewTraceSet()
		sinks, _, _, err := htGenerate(Config{Seed: 1, SimWorkers: workers, Trace: ts}, traceSampleSrc, ports, seed,
			warmupUs*netsim.Microsecond, windowUs*netsim.Microsecond, false)
		if err != nil {
			t.Fatal(err)
		}

		if ts.Len() == 0 || sinks[2].Packets == 0 {
			t.Fatalf("workers=%d: %d trace records, %d frames at sink 2; the comparison is vacuous",
				workers, ts.Len(), sinks[2].Packets)
		}
		gen := obs.NewRegistry()
		for i, s := range sinks {
			s.Describe(gen, fmt.Sprintf("sink%d", i))
		}
		for _, g := range gen.All() {
			if got, ok := metric[g.Name]; !ok || got.Text != g.Text {
				t.Errorf("workers=%d: %s: scenario %q, htGenerate %s", workers, g.Name, got.Text, g.Text)
			}
		}
		sum := sha256.Sum256([]byte(ts.Canonical()))
		if got, want := metric["trace.sha256"].Text, hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: trace.sha256: scenario %s, htGenerate %s (%v vs %d records)",
				workers, got, want, metric["trace.records"].Num, ts.Len())
		}
	}
}
