// Package scenario is the declarative layer over the simulated testbed: a
// Scenario names a topology (ports, DUT kind, link delay, engine workers),
// an NTAPI program (inline source or a .nt file), a traffic window, and a
// list of checks evaluated against the metrics the run observed. Suites of
// scenarios load from stdlib-JSON files (Load) and run on a worker pool with
// per-scenario error and panic containment (RunSuite) — the paper's §4
// pitch, that one switch program model drives arbitrary testing tasks,
// expressed as data instead of Go. The package also owns the Rig, the one
// place a tester is wired to devices under test: Run, the CLI's -task mode
// and the paper's evaluation (internal/experiments) all build through it. It
// depends on the tester and the testbed only.
//
// # Determinism contract
//
// Everything a check can observe is engine-invariant: switch port counters,
// template fired counts, query reports, DUT statistics, and the SHA-256 of
// the canonical packet trace are bit-identical between the sequential
// engine and the parallel LP engine at any worker count (DESIGN.md §10).
// Metrics are carried as an ordered list, never ranged out of a map, so a
// rendered scenario result is byte-stable too.
package scenario

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// DUT kinds a topology can name. Each tester port gets its own device
// instance on its own logical process.
const (
	DUTSink       = "sink"       // counting sink (throughput/rate checks)
	DUTReflector  = "reflector"  // bounces frames back (delay loops)
	DUTHTTPFarm   = "httpfarm"   // TCP/HTTP server farm (web testing)
	DUTScanTarget = "scantarget" // emulated IPv4 space (scanning)
	DUTHHSink     = "hhsink"     // per-flow counting sink + Count-Min shadow
)

// DUTKinds lists the kinds the rig can build, in doc order.
var DUTKinds = []string{DUTSink, DUTReflector, DUTHTTPFarm, DUTScanTarget, DUTHHSink}

// Topology declares the testbed a scenario runs on: a HyperTester switch
// with len(Ports) front-panel ports, each cabled to its own DUT instance.
type Topology struct {
	// Ports lists front-panel port rates in Gbps (index = port ID).
	Ports []float64 `json:"ports"`
	// DUT names the device kind behind every port (see DUT constants).
	DUT string `json:"dut"`
	// DUTGbps overrides the DUT-side line rate; 0 means match the port.
	DUTGbps float64 `json:"dut_gbps,omitempty"`
	// CableDelayNs is the cable propagation delay in nanoseconds.
	CableDelayNs float64 `json:"cable_delay_ns,omitempty"`
	// SimWorkers > 1 runs the topology on the parallel LP engine. The
	// suite runner's config can override it; results are identical either
	// way.
	SimWorkers int `json:"sim_workers,omitempty"`
}

// Program names the NTAPI task the tester loads: inline Source, or a .nt
// File that the suite loader resolves (relative to the suite file) and
// reads into Source, so a validated scenario never touches the filesystem.
type Program struct {
	Name   string `json:"name,omitempty"`
	Source Source `json:"source,omitempty"`
	File   string `json:"file,omitempty"`
}

// Source is NTAPI program text. In a suite file it may be written as one
// JSON string or as an array of lines (JSON has no multiline strings);
// either way it round-trips as the joined text.
type Source string

// UnmarshalJSON accepts a string or an array of line strings.
func (s *Source) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '[' {
		var lines []string
		if err := json.Unmarshal(b, &lines); err != nil {
			return err
		}
		*s = Source(strings.Join(lines, "\n") + "\n")
		return nil
	}
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	*s = Source(str)
	return nil
}

// Traffic bounds the run: a warm-up that is excluded from sink statistics,
// then the measurement window checks observe.
type Traffic struct {
	WarmupUs float64 `json:"warmup_us,omitempty"`
	WindowUs float64 `json:"window_us"`
	// Seed drives all of the run's randomness (templates, DUT jitter).
	Seed int64 `json:"seed,omitempty"`
}

// Check kinds.
const (
	CheckThreshold = "threshold" // numeric metric compared with Op/Value
	CheckRange     = "range"     // numeric metric inside [Min, Max]
	CheckGolden    = "golden"    // metric's canonical text == Want, byte-exact
)

// Check is one assertion over the run's metrics.
type Check struct {
	// Name labels the check in reports; defaults to "<kind> <metric>".
	Name string `json:"name,omitempty"`
	// Kind is one of the Check constants.
	Kind string `json:"kind"`
	// Metric names the observed value (see Run's metric catalogue).
	Metric string `json:"metric"`
	// Op and Value parameterize threshold checks. Op is one of
	// >=, <=, >, <, ==, != (default >=).
	Op    string  `json:"op,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Min and Max bound range checks (inclusive).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Want is the golden text a golden check compares against.
	Want string `json:"want,omitempty"`
}

// Label returns the check's display name.
func (c Check) Label() string {
	if c.Name != "" {
		return c.Name
	}
	return c.Kind + " " + c.Metric
}

// Scenario is one declarative test: topology + program + traffic + checks.
type Scenario struct {
	Name     string   `json:"name"`
	Title    string   `json:"title,omitempty"`
	Topology Topology `json:"topology"`
	Program  Program  `json:"program"`
	Traffic  Traffic  `json:"traffic"`
	Checks   []Check  `json:"checks,omitempty"`
}

// Numeric bounds. Every duration a scenario declares becomes a netsim.Time
// (int64 picoseconds, ~106 days) and every rate a wire time; a value outside
// these ranges overflows that arithmetic — a cable delay of 1e18 ns wraps
// negative and netsim panics scheduling into the past, a 1e-300 Gbps port
// serializes a frame for longer than the clock can count. The ranges are
// far wider than any testbed (the loop model's time arithmetic relies on
// them too: virtual time stays orders of magnitude below MaxTime).
const (
	minGbps         = 1e-3 // 1 Mbps: a 1518 B frame takes 12 ms
	maxGbps         = 1e5  // 100 Tbps: a 64 B frame still takes 6 ps, not 0
	maxCableDelayNs = 1e9  // one second of cable
	maxTrafficUs    = 3.6e9
	maxSimWorkers   = 1024
)

// FieldError is a validation error. Path names the offending field of the
// scenario's JSON form from the scenario object down — string keys and int
// array indices — so the suite loader can point at its line and column; it is
// empty when the error is about no single field.
type FieldError struct {
	Path []any
	msg  string
}

func (e *FieldError) Error() string { return e.msg }

// validate rejects topologies that would build a nonsense testbed. It is the
// one place port rates, the DUT kind, cable delay and worker counts are
// bounded: Scenario.Validate calls it for suite files and the CLI's -task
// flags, Build for every caller.
func (t *Topology) validate() *FieldError {
	bad := func(path []any, format string, args ...any) *FieldError {
		return &FieldError{Path: path, msg: fmt.Sprintf(format, args...)}
	}
	if len(t.Ports) == 0 {
		return bad(nil, "topology needs at least one port")
	}
	for i, g := range t.Ports {
		if !(g > 0) { // catches NaN too
			return bad([]any{"topology", "ports", i}, "port %d rate %v Gbps is not positive", i, g)
		}
		if g < minGbps || g > maxGbps {
			return bad([]any{"topology", "ports", i}, "port %d rate %v Gbps is outside [%v, %v]", i, g, minGbps, maxGbps)
		}
	}
	if g := t.DUTGbps; g < 0 || g != g || (g != 0 && (g < minGbps || g > maxGbps)) {
		return bad([]any{"topology", "dut_gbps"}, "dut_gbps %v is invalid (0, or within [%v, %v])", g, minGbps, maxGbps)
	}
	if !slices.Contains(DUTKinds, t.DUT) {
		return bad(nil, "unknown dut kind %q (want one of %s)", t.DUT, strings.Join(DUTKinds, ", "))
	}
	if d := t.CableDelayNs; !(d >= 0 && d <= maxCableDelayNs) { // catches NaN too
		return bad([]any{"topology", "cable_delay_ns"}, "cable_delay_ns %v is outside [0, %v]", d, maxCableDelayNs)
	}
	if w := t.SimWorkers; w < 0 || w > maxSimWorkers {
		return bad([]any{"topology", "sim_workers"}, "sim_workers %d is outside [0, %d]", w, maxSimWorkers)
	}
	return nil
}

// Validate rejects scenarios that would build a nonsense testbed, so every
// error surfaces before any simulation runs. Every error but a missing name
// is a *FieldError.
func (s *Scenario) Validate() error {
	bad := func(path []any, format string, args ...any) error {
		return &FieldError{Path: path, msg: fmt.Sprintf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))}
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if e := s.Topology.validate(); e != nil {
		return bad(e.Path, "%s", e.msg)
	}
	if s.Program.Source == "" && s.Program.File == "" {
		return bad(nil, "program needs inline source or a file")
	}
	if s.Program.Source != "" && s.Program.File != "" {
		return bad(nil, "program has both inline source and a file; pick one")
	}
	if w := s.Traffic.WindowUs; !(w > 0) {
		return bad([]any{"traffic", "window_us"}, "traffic window %v us is not positive", w)
	} else if w > maxTrafficUs {
		return bad([]any{"traffic", "window_us"}, "traffic window %v us exceeds %v (one hour of virtual time)", w, maxTrafficUs)
	}
	if w := s.Traffic.WarmupUs; !(w >= 0 && w <= maxTrafficUs) {
		return bad([]any{"traffic", "warmup_us"}, "traffic warmup %v us is outside [0, %v]", w, maxTrafficUs)
	}
	for i, c := range s.Checks {
		if c.Metric == "" {
			return bad(nil, "check %d (%s) names no metric", i, c.Label())
		}
		switch c.Kind {
		case CheckThreshold:
			switch c.Op {
			case "", ">=", "<=", ">", "<", "==", "!=":
			default:
				return bad(nil, "check %d (%s): unknown op %q", i, c.Label(), c.Op)
			}
		case CheckRange:
			if c.Min > c.Max {
				return bad(nil, "check %d (%s): min %v > max %v", i, c.Label(), c.Min, c.Max)
			}
		case CheckGolden:
			if c.Want == "" {
				return bad(nil, "check %d (%s): golden check needs want", i, c.Label())
			}
		default:
			return bad(nil, "check %d (%s): unknown check kind %q (want %s, %s or %s)",
				i, c.Label(), c.Kind, CheckThreshold, CheckRange, CheckGolden)
		}
	}
	return nil
}
