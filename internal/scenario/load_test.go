package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const minimalScenario = `{
      "name": "one",
      "topology": {"ports": [100], "dut": "sink"},
      "program": {"source": "T1 = trigger().set(port, 0)\n"},
      "traffic": {"window_us": 10}
    }`

// TestParseErrors covers the loader's rejection paths; every parse-level
// error must carry a file:line:col location.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name     string
		data     string
		want     string
		wantLine bool
	}{
		{"syntax error", "{\n  \"name\": \"x\",,\n}", "invalid character", true},
		{"wrong type", "{\n  \"name\": 42\n}", "cannot unmarshal number", true},
		{"unknown field", "{\n  \"name\": \"x\",\n  \"scenarioz\": []\n}", "unknown field", true},
		{"trailing content", `{"name": "x", "scenarios": [` + minimalScenario + `]} {"again": 1}`, "trailing content", true},
		{"no name", `{"scenarios": [` + minimalScenario + `]}`, "no name", false},
		{"no scenarios", `{"name": "x"}`, "declares no scenarios", false},
		{"invalid scenario", `{"name": "x", "scenarios": [{"name": "bad"}]}`, "at least one port", false},
		{"unknown check kind", `{"name": "x", "scenarios": [{
		      "name": "one",
		      "topology": {"ports": [100], "dut": "sink"},
		      "program": {"source": "T1 = trigger().set(port, 0)\n"},
		      "traffic": {"window_us": 10},
		      "checks": [{"kind": "vibes", "metric": "m"}]
		    }]}`, "unknown check kind", false},
		{"duplicate names", `{"name": "x", "scenarios": [` + minimalScenario + `, ` + minimalScenario + `]}`, "duplicate scenario name", false},
		{"missing program file", `{"name": "x", "scenarios": [{
		      "name": "one",
		      "topology": {"ports": [100], "dut": "sink"},
		      "program": {"file": "no-such-task.nt"},
		      "traffic": {"window_us": 10}
		    }]}`, "no-such-task.nt", false},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.data), "suite.json", t.TempDir())
		if err == nil {
			t.Errorf("%s: not rejected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if c.wantLine && !strings.Contains(err.Error(), "suite.json:") {
			t.Errorf("%s: error %q carries no file:line location", c.name, err)
		}
	}

	// A validation error points at the field it is about — here the three
	// numbers that used to load and then panic inside netsim — or, when it
	// is about none, at the scenario.
	scenarioWith := func(topology, traffic string) string {
		return "{\"name\": \"x\", \"scenarios\": [\n{\n  \"name\": \"one\",\n  \"topology\": " + topology +
			",\n  \"program\": {\"source\": \"T1 = trigger().set(port, 0)\\n\"},\n  \"traffic\": " + traffic + "\n}]}"
	}
	for _, c := range []struct{ name, data, want string }{
		{"cable 1e30", scenarioWith("{\"ports\": [100], \"dut\": \"sink\",\n    \"cable_delay_ns\": 1e30}", `{"window_us": 10}`),
			"suite.json:5:23: scenarios[0]: scenario \"one\": cable_delay_ns 1e+30 is outside"},
		{"cable 1e18", scenarioWith("{\"cable_delay_ns\":1e18, \"ports\": [100], \"dut\": \"sink\"}", `{"window_us": 10}`),
			"suite.json:4:33: scenarios[0]: scenario \"one\": cable_delay_ns 1e+18 is outside"},
		{"port rate 1e-300", scenarioWith("{\"ports\": [100, 40,\n      1e-300], \"dut\": \"sink\"}", `{"window_us": 10}`),
			"suite.json:5:7: scenarios[0]: scenario \"one\": port 2 rate 1e-300 Gbps is outside"},
		{"window", scenarioWith("{\"ports\": [100], \"dut\": \"sink\"}", "{\"seed\": 3,\n   \"window_us\": 1e40}"),
			"suite.json:7:17: scenarios[0]: scenario \"one\": traffic window 1e+40 us exceeds"},
		{"absent field", scenarioWith("{\"ports\": [100], \"dut\": \"sink\"}", `{"warmup_us": 1}`),
			"suite.json:6:14: scenarios[0]: scenario \"one\": traffic window 0 us is not positive"},
		{"whole scenario", scenarioWith("{\"ports\": [100], \"dut\": \"toaster\"}", `{"window_us": 10}`),
			"suite.json:2:1: scenarios[0]: scenario \"one\": unknown dut kind"},
	} {
		_, err := Parse([]byte(c.data), "suite.json", "")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want it to carry %q", c.name, err, c.want)
		}
	}

	// A parse error's line:col must point at the offending line.
	_, err := Parse([]byte("{\n  \"name\": \"x\",,\n}"), "suite.json", "")
	if err == nil || !strings.Contains(err.Error(), "suite.json:2:") {
		t.Errorf("syntax error located at %v, want line 2", err)
	}
}

// TestLoadResolvesProgramFiles pins .nt file resolution relative to the
// suite file's directory, including multi-line array sources.
func TestLoadResolvesProgramFiles(t *testing.T) {
	dir := t.TempDir()
	task := "T1 = trigger().set(port, 0)\n"
	if err := os.WriteFile(filepath.Join(dir, "task.nt"), []byte(task), 0o644); err != nil {
		t.Fatal(err)
	}
	suite := `{"name": "files", "scenarios": [{
	      "name": "from-file",
	      "topology": {"ports": [100], "dut": "sink"},
	      "program": {"file": "task.nt"},
	      "traffic": {"window_us": 10}
	    }, {
	      "name": "from-lines",
	      "topology": {"ports": [100], "dut": "sink"},
	      "program": {"source": ["T1 = trigger()", "    .set(port, 0)"]},
	      "traffic": {"window_us": 10}
	    }]}`
	path := filepath.Join(dir, "suite.json")
	if err := os.WriteFile(path, []byte(suite), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(s.Scenarios[0].Program.Source); got != task {
		t.Errorf("file source = %q, want %q", got, task)
	}
	if s.Scenarios[0].Program.Name != "task.nt" {
		t.Errorf("program name = %q, want the file name", s.Scenarios[0].Program.Name)
	}
	if got := string(s.Scenarios[1].Program.Source); got != "T1 = trigger()\n    .set(port, 0)\n" {
		t.Errorf("line-array source = %q", got)
	}

	// File references must be rejected when no base directory is allowed.
	if _, err := Parse([]byte(suite), "inline", ""); err == nil ||
		!strings.Contains(err.Error(), "not allowed") {
		t.Errorf("dirless file reference: %v", err)
	}
}

// TestEncodeRoundTrip pins that EncodeSuite output re-parses to the same
// suite — the property the committed starter file relies on.
func TestEncodeRoundTrip(t *testing.T) {
	lib := Library()
	data, err := EncodeSuite(lib)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data, "encoded", "")
	if err != nil {
		t.Fatalf("encoded library does not re-parse: %v", err)
	}
	if len(back.Scenarios) != len(lib.Scenarios) {
		t.Fatalf("round trip lost scenarios: %d vs %d", len(back.Scenarios), len(lib.Scenarios))
	}
	again, err := EncodeSuite(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("encode → parse → encode is not a fixed point")
	}
}

// FuzzSuiteParse: the suite loader never panics on any bytes, and every
// scenario of a suite it accepts validates. Program file references are
// refused (no directory), as for any untrusted input. Seeds are under
// testdata/fuzz/FuzzSuiteParse.
func FuzzSuiteParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		suite, err := Parse(data, "fuzz.json", "")
		if err != nil {
			return
		}
		for i, sc := range suite.Scenarios {
			if err := sc.Validate(); err != nil {
				t.Fatalf("scenarios[%d] loaded but does not validate: %v", i, err)
			}
		}
	})
}
