package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestParallelDeterminism is the regression gate for the parallel suite
// runner: the same seed must produce bit-identical rendered results whether
// the 18 experiments run sequentially on one goroutine or fanned out across
// the worker pool. Each experiment owns its Sim and derives every RNG stream
// from (seed, label), so any divergence here means someone introduced shared
// mutable state between experiments.
func TestParallelDeterminism(t *testing.T) {
	// Force a genuinely concurrent pool even on single-CPU machines, so
	// this test (and its -race run in CI) always exercises the parallel
	// path rather than Run's sequential fallback.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	c := Config{Quick: true, Seed: 1}
	seq := AllSequential(c)
	par := All(c)
	if len(seq) != len(par) {
		t.Fatalf("sequential ran %d experiments, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Fatalf("order diverged at %d: %s vs %s", i, seq[i].ID, par[i].ID)
		}
		if s, p := seq[i].String(), par[i].String(); s != p {
			t.Errorf("%s: parallel output diverges from sequential:\n--- sequential\n%s\n--- parallel\n%s",
				seq[i].ID, s, p)
		}
	}
	// Piggyback the headline audit on the results already computed: every
	// experiment must expose a parseable headline metric — the number
	// TestAllExperimentsRun pins and the bench suite reports.
	for _, r := range par {
		v, unit, err := Headline(r)
		if err != nil {
			t.Errorf("%s: %v", r.ID, err)
			continue
		}
		if unit == "" {
			t.Errorf("%s: empty headline unit", r.ID)
		}
		if v == 0 && !strings.HasPrefix(r.ID, "Ablation A") {
			// Ablation A's headline is "0 counter errors" by design.
			t.Errorf("%s: headline %s = 0, suspicious", r.ID, unit)
		}
	}
}

// TestRunPreservesOrder pins that Run returns results in spec order even
// though workers complete out of order.
func TestRunPreservesOrder(t *testing.T) {
	specs := Specs()
	got := Run(Config{Quick: true, Seed: 1}, specs[:4])
	for i, r := range got {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
		if r.ID != specs[i].ID {
			t.Errorf("result %d = %s, want %s", i, r.ID, specs[i].ID)
		}
	}
}

// TestHeadlineErrors pins the failure mode: unknown IDs and non-numeric
// cells must error instead of silently reporting 0.
func TestHeadlineErrors(t *testing.T) {
	if _, _, err := Headline(&Result{ID: "nope"}); err == nil {
		t.Error("unknown experiment ID did not error")
	}
	r := &Result{ID: "Fig. 9", Rows: []Row{{Label: "64B", Values: []string{"not-a-number"}}}}
	if _, _, err := Headline(r); err == nil {
		t.Error("non-numeric headline cell did not error")
	}
	if _, _, err := Headline(&Result{ID: "Fig. 9"}); err == nil {
		t.Error("missing rows did not error")
	}
}
