package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netsim"
)

// runSpec executes one experiment, containing any panic as a named failure:
// the panicking experiment reports a result whose notes carry the panic
// value, and headline() on that result errors (so a crashed experiment can
// never masquerade as a measurement), while the rest of the suite keeps
// running. The recovery note deliberately omits the stack trace — results
// render bit-identically across engines and worker counts, and goroutine
// stacks do not.
func runSpec(cfg Config, sp Spec) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{
				ID:    sp.ID,
				Title: "experiment failed",
				Notes: []string{fmt.Sprintf("PANIC: %v", p)},
			}
		}
	}()
	res = sp.Fn(cfg)
	if res == nil {
		res = &Result{ID: sp.ID, Title: "experiment failed",
			Notes: []string{"experiment returned no result"}}
	}
	return res
}

// Run executes specs across a GOMAXPROCS-bounded worker pool and returns
// results in input order regardless of completion order. Every experiment
// builds its own netsim.Sim and derives every random stream from cfg.Seed
// plus a component label, so no state is shared between workers and the
// output is bit-identical to a sequential run (TestParallelDeterminism pins
// this). A panicking experiment fails alone (runSpec).
func Run(cfg Config, specs []Spec) []*Result {
	out := make([]*Result, len(specs))
	netsim.ParMap(runtime.GOMAXPROCS(0), len(specs), func(i int) {
		out[i] = runSpec(cfg, specs[i])
	})
	return out
}

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

// The quick suite at seed 1 in its two reference runs, each executed at most
// once per test binary and shared by every test that compares against it:
// quickSequential on the calling goroutine and the sequential engine,
// untraced; quickPool on a worker pool of at least 4 (TestPaperTables/quick
// pins its headlines). The other configurations — SimWorkers 4, traced —
// are each run by the one test that compares them with quickSequential.
var (
	quickSeqOnce, quickPoolOnce sync.Once
	quickSeq, quickPar          []*Result
	quickPoolLoop               asic.LoopStats
)

func quickSequential() []*Result {
	quickSeqOnce.Do(func() {
		quickSeq = sequential(Config{Quick: true, Seed: 1, SimWorkers: 1}, Specs())
	})
	return quickSeq
}

// quickPool also returns its testers' loop-model totals.
func quickPool() ([]*Result, asic.LoopStats) {
	quickPoolOnce.Do(func() {
		// Force a genuinely concurrent pool even on single-CPU machines,
		// so the comparison (and its -race run in CI) always exercises
		// the parallel path rather than Run's sequential fallback.
		if prev := runtime.GOMAXPROCS(0); prev < 4 {
			runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
		}
		var stats simStats
		quickPar = Run(Config{Quick: true, Seed: 1, stats: &stats}, Specs())
		_, quickPoolLoop = stats.totals()
	})
	return quickPar, quickPoolLoop
}

// headline extracts sp's headline metric from r. It returns an error —
// rather than a silent zero — when the result has no such cell or the cell
// does not start with a number, so a broken experiment cannot masquerade as
// a real measurement.
func headline(sp Spec, r *Result) (value float64, unit string, err error) {
	spec := sp.Headline
	row := spec.Row
	if row < 0 {
		row += len(r.Rows)
	}
	if row < 0 || row >= len(r.Rows) || spec.Col >= len(r.Rows[row].Values) {
		return 0, "", fmt.Errorf("%s has no cell (%d,%d): %d rows",
			r.ID, spec.Row, spec.Col, len(r.Rows))
	}
	cell := r.Rows[row].Values[spec.Col]
	fields := strings.Fields(cell)
	if len(fields) == 0 {
		return 0, "", fmt.Errorf("%s cell (%d,%d) is empty", r.ID, spec.Row, spec.Col)
	}
	num := strings.TrimPrefix(fields[0], "$")
	num = strings.TrimSuffix(strings.TrimSuffix(num, "%"), "x")
	v, perr := strconv.ParseFloat(num, 64)
	if perr != nil {
		return 0, "", fmt.Errorf("%s cell (%d,%d) %q is not numeric",
			r.ID, spec.Row, spec.Col, cell)
	}
	return v, spec.Unit, nil
}

// totals sums the counters of the testers s tracked. Call once the
// experiment is over.
func (s *simStats) totals() (events uint64, loop asic.LoopStats) {
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

// TestParallelDeterminism is the regression gate for the parallel suite
// runner: the same seed must produce bit-identical rendered results whether
// the 18 experiments run sequentially on one goroutine or fanned out across
// the worker pool. Each experiment owns its Sim and derives every RNG stream
// from (seed, label), so any divergence here means someone introduced shared
// mutable state between experiments.
func TestParallelDeterminism(t *testing.T) {
	seq := quickSequential()
	par, _ := quickPool()
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
	// TestPaperTables/quick pins.
	for i, r := range par {
		v, unit, err := headline(Specs()[i], r)
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

// TestHeadlineErrors pins the failure mode: non-numeric cells and missing
// rows must error instead of silently reporting 0.
func TestHeadlineErrors(t *testing.T) {
	fig9 := Spec{ID: "Fig. 9", Headline: HeadlineSpec{0, 0, "Gbps-64B@100G"}}
	r := &Result{ID: "Fig. 9", Rows: []Row{{Label: "64B", Values: []string{"not-a-number"}}}}
	if _, _, err := headline(fig9, r); err == nil {
		t.Error("non-numeric headline cell did not error")
	}
	if _, _, err := headline(fig9, &Result{ID: "Fig. 9"}); err == nil {
		t.Error("missing rows did not error")
	}
	r = &Result{ID: "Fig. 9", Rows: []Row{{Label: "64B", Values: []string{""}}}}
	if _, _, err := headline(fig9, r); err == nil {
		t.Error("empty headline cell did not error")
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
		if _, _, err := headline(in[1], out[1]); err == nil {
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
