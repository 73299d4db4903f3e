package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// sequential runs specs one after another on the calling goroutine — the
// reference ordering the determinism tests compare the pool and the parallel
// engine against.
func sequential(cfg Config, specs []Spec) []*Result {
	out := make([]*Result, len(specs))
	for i, sp := range specs {
		out[i] = runSpec(cfg, sp)
	}
	return out
}

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
	seq := sequential(c, Specs())
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

// TestFig10FullWindowHeadline: at full windows Fig. 10 also sweeps MoonGen
// to 8 cores, and the HT cell of those rows is "-" (the testbed has four
// 100G ports). The headline is the n=4 row in both modes.
func TestFig10FullWindowHeadline(t *testing.T) {
	r := Fig10MultiPort(Config{Seed: 1})
	if len(r.Rows) != 8 {
		t.Fatalf("full-window Fig. 10 has %d rows, want n=1..8", len(r.Rows))
	}
	v, unit, err := Headline(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[3].Label != "n=4" || v != 400 || unit != "Gbps-aggregate" {
		t.Fatalf("headline %v %s from row %q, want 400 Gbps-aggregate from n=4", v, unit, r.Rows[3].Label)
	}
}

// TestRunRecoversPanics pins the bugfix: a panicking experiment must become
// a named failure in its input-order slot — on the worker-pool path, the
// inline path, and one-by-one (TestRunRecoversPanicsSequential) — instead of
// crashing the whole suite.
func TestRunRecoversPanics(t *testing.T) {
	ok := func(id string) Spec {
		return Spec{ID: id, Fn: func(Config) *Result {
			return &Result{ID: id, Title: "ok"}
		}}
	}
	specs := []Spec{
		ok("first"),
		{ID: "boom", Fn: func(Config) *Result { panic("synthetic failure") }},
		ok("third"),
		{ID: "nilres", Fn: func(Config) *Result { return nil }},
	}
	check := func(t *testing.T, in []Spec, out []*Result) {
		t.Helper()
		if len(out) != len(in) {
			t.Fatalf("got %d results, want %d", len(out), len(in))
		}
		for i, r := range out {
			if r == nil {
				t.Fatalf("result %d is nil", i)
			}
			if r.ID != in[i].ID {
				t.Errorf("result %d = %s, want %s (input order lost)", i, r.ID, in[i].ID)
			}
		}
		if out[1].Title != "experiment failed" {
			t.Errorf("panicking spec title = %q, want failure", out[1].Title)
		}
		if len(out[1].Notes) == 0 || !strings.Contains(out[1].Notes[0], "synthetic failure") {
			t.Errorf("panic value not preserved in notes: %v", out[1].Notes)
		}
		if len(out) > 3 && out[3].Title != "experiment failed" {
			t.Errorf("nil-result spec title = %q, want failure", out[3].Title)
		}
		if _, _, err := Headline(out[1]); err == nil {
			t.Error("failed experiment produced a headline")
		}
	}
	t.Run("pool", func(t *testing.T) { check(t, specs, Run(Config{Quick: true, Seed: 1}, specs)) })
	// A 2-spec input on a multi-core box still uses the pool, but ParMap's
	// inline path is what a single-CPU machine gets; exercise runSpec through
	// Run either way with the panicking spec in slot 1.
	t.Run("short", func(t *testing.T) { check(t, specs[:2], Run(Config{Quick: true, Seed: 1}, specs[:2])) })
}

// TestRunRecoversPanicsSequential covers the one-by-one path: a real (fast)
// experiment followed by a panicking one, both through runSpec.
func TestRunRecoversPanicsSequential(t *testing.T) {
	out := sequential(Config{Quick: true, Seed: 1}, []Spec{
		Specs()[0],
		{ID: "seq-boom", Fn: func(Config) *Result { panic("seq failure") }},
	})
	if out[0].ID != "Table 5" || out[0].Title == "experiment failed" {
		t.Errorf("real experiment failed: %+v", out[0])
	}
	if out[1].ID != "seq-boom" || out[1].Title != "experiment failed" {
		t.Errorf("panicking experiment not recovered: %+v", out[1])
	}
}
