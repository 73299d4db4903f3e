package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/obs"
)

// TestLibraryBothEngines is the package's determinism gate: every starter
// scenario must pass all of its checks, and every observed metric —
// including the SHA-256 of the canonical packet trace — must be
// byte-identical between the sequential engine and the parallel LP engine
// at 4 workers.
func TestLibraryBothEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every starter scenario twice")
	}
	for _, sc := range Library().Scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			seq, err := Run(sc, 1)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := Run(sc, 4)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			for _, r := range seq.Checks {
				if !r.Pass {
					t.Errorf("check %q failed: got %s, %s", r.Name, r.Got, r.Detail)
				}
			}
			if !par.Pass {
				t.Errorf("parallel run failed checks that sequential passed")
			}
			if len(seq.Metrics) != len(par.Metrics) {
				t.Fatalf("metric count diverges: %d sequential, %d parallel",
					len(seq.Metrics), len(par.Metrics))
			}
			for i := range seq.Metrics {
				s, p := seq.Metrics[i], par.Metrics[i]
				if s.Name != p.Name || s.Text != p.Text {
					t.Errorf("metric %d diverges across engines: %s=%s (seq) vs %s=%s (par)",
						i, s.Name, s.Text, p.Name, p.Text)
				}
			}
			checkMetricsGolden(t, sc.Name, seq)
		})
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the metric goldens under testdata/metrics")

// checkMetricsGolden pins a run's whole catalogue — every metric name and its
// canonical text, in recording order — to testdata/metrics/<name>.golden.
// Regenerate only on purpose, with -update.
func checkMetricsGolden(t *testing.T, name string, res *RunResult) {
	t.Helper()
	var b strings.Builder
	for _, m := range res.Metrics {
		fmt.Fprintf(&b, "%s %s\n", m.Name, m.Text)
	}
	path := filepath.Join("testdata", "metrics", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("metric line %d differs from %s:\n got %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%d metric lines, %s has %d", len(gl), path, len(wl))
	}
}

// TestValidate covers the scenario-level rejection paths.
func TestValidate(t *testing.T) {
	good := func() *Scenario {
		return &Scenario{
			Name:     "ok",
			Topology: Topology{Ports: []float64{100}, DUT: DUTSink},
			Program:  Program{Source: "T1 = trigger().set(port, 0)\n"},
			Traffic:  Traffic{WindowUs: 10},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	nan := 0.0
	nan /= nan
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"no ports", func(s *Scenario) { s.Topology.Ports = nil }, "at least one port"},
		{"zero rate", func(s *Scenario) { s.Topology.Ports = []float64{0} }, "not positive"},
		{"negative rate", func(s *Scenario) { s.Topology.Ports = []float64{-1} }, "not positive"},
		{"nan rate", func(s *Scenario) { s.Topology.Ports = []float64{nan} }, "not positive"},
		{"bad dut", func(s *Scenario) { s.Topology.DUT = "toaster" }, "unknown dut kind"},
		{"negative cable", func(s *Scenario) { s.Topology.CableDelayNs = -1 }, "cable_delay_ns"},
		// Values netsim.Time cannot represent (the first three used to
		// pass and panic inside netsim: "scheduling event before now").
		{"cable overflows sim time", func(s *Scenario) { s.Topology.CableDelayNs = 1e30 }, "cable_delay_ns 1e+30 is outside"},
		{"cable wraps negative", func(s *Scenario) { s.Topology.CableDelayNs = 1e18 }, "cable_delay_ns 1e+18 is outside"},
		{"rate with an endless wire time", func(s *Scenario) { s.Topology.Ports = []float64{100, 1e-300} }, "port 1 rate 1e-300 Gbps is outside"},
		{"rate with a zero wire time", func(s *Scenario) { s.Topology.Ports = []float64{1e300} }, "port 0 rate 1e+300 Gbps is outside"},
		{"nan cable", func(s *Scenario) { s.Topology.CableDelayNs = nan }, "cable_delay_ns"},
		{"dut rate too low", func(s *Scenario) { s.Topology.DUTGbps = 1e-300 }, "dut_gbps"},
		{"window overflows sim time", func(s *Scenario) { s.Traffic.WindowUs = 1e30 }, "exceeds"},
		{"warmup overflows sim time", func(s *Scenario) { s.Traffic.WarmupUs = 1e30 }, "warmup"},
		{"negative workers", func(s *Scenario) { s.Topology.SimWorkers = -2 }, "sim_workers"},
		{"absurd workers", func(s *Scenario) { s.Topology.SimWorkers = 1 << 30 }, "sim_workers"},
		{"no program", func(s *Scenario) { s.Program = Program{} }, "inline source or a file"},
		{"both programs", func(s *Scenario) { s.Program.File = "x.nt" }, "pick one"},
		{"zero window", func(s *Scenario) { s.Traffic.WindowUs = 0 }, "not positive"},
		{"nan window", func(s *Scenario) { s.Traffic.WindowUs = nan }, "not positive"},
		{"negative warmup", func(s *Scenario) { s.Traffic.WarmupUs = -1 }, "warmup"},
		{"no metric", func(s *Scenario) { s.Checks = []Check{{Kind: CheckThreshold}} }, "names no metric"},
		{"bad kind", func(s *Scenario) { s.Checks = []Check{{Kind: "vibes", Metric: "m"}} }, "unknown check kind"},
		{"bad op", func(s *Scenario) {
			s.Checks = []Check{{Kind: CheckThreshold, Metric: "m", Op: "~="}}
		}, "unknown op"},
		{"inverted range", func(s *Scenario) {
			s.Checks = []Check{{Kind: CheckRange, Metric: "m", Min: 2, Max: 1}}
		}, "min 2 > max 1"},
		{"golden no want", func(s *Scenario) {
			s.Checks = []Check{{Kind: CheckGolden, Metric: "m"}}
		}, "needs want"},
	}
	for _, c := range cases {
		sc := good()
		c.mut(sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: not rejected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestCheckEval covers the check evaluator, including the missing-metric
// and non-numeric failure modes.
func TestCheckEval(t *testing.T) {
	m := obs.NewRegistry()
	m.Num("", "rate", 42.5)
	m.Text("", "digest", "abc123")

	cases := []struct {
		check Check
		pass  bool
	}{
		{Check{Kind: CheckThreshold, Metric: "rate", Op: ">=", Value: 42.5}, true},
		{Check{Kind: CheckThreshold, Metric: "rate", Op: ">", Value: 42.5}, false},
		{Check{Kind: CheckThreshold, Metric: "rate", Op: "<=", Value: 42.5}, true},
		{Check{Kind: CheckThreshold, Metric: "rate", Op: "<", Value: 50}, true},
		{Check{Kind: CheckThreshold, Metric: "rate", Op: "==", Value: 42.5}, true},
		{Check{Kind: CheckThreshold, Metric: "rate", Op: "!=", Value: 0}, true},
		{Check{Kind: CheckThreshold, Metric: "rate", Value: 40}, true}, // default op >=
		{Check{Kind: CheckThreshold, Metric: "missing", Value: 0}, false},
		{Check{Kind: CheckThreshold, Metric: "digest", Value: 0}, false}, // not numeric
		{Check{Kind: CheckRange, Metric: "rate", Min: 42, Max: 43}, true},
		{Check{Kind: CheckRange, Metric: "rate", Min: 0, Max: 42}, false},
		{Check{Kind: CheckRange, Metric: "digest", Min: 0, Max: 1}, false},
		{Check{Kind: CheckGolden, Metric: "digest", Want: "abc123"}, true},
		{Check{Kind: CheckGolden, Metric: "digest", Want: "abc124"}, false},
		{Check{Kind: CheckGolden, Metric: "rate", Want: "42.5"}, true}, // canonical text
	}
	for i, c := range cases {
		got := c.check.Eval(m)
		if got.Pass != c.pass {
			t.Errorf("case %d (%s %s): pass=%v, want %v (got %s, %s)",
				i, c.check.Kind, c.check.Metric, got.Pass, c.pass, got.Got, got.Detail)
		}
	}
	if r := (Check{Kind: CheckThreshold, Metric: "missing"}).Eval(m); r.Got != "(missing)" {
		t.Errorf("missing metric rendered %q", r.Got)
	}
}
