package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/scenario"
)

func TestParsePorts(t *testing.T) {
	cases := []struct {
		in      string
		want    []float64
		wantErr string
	}{
		{in: "100", want: []float64{100}},
		{in: "100, 25,10", want: []float64{100, 25, 10}},
		{in: "0.5", want: []float64{0.5}},
		{in: "abc", wantErr: `bad port rate "abc"`},
		{in: "100,,25", wantErr: `bad port rate ""`},
		{in: "0", wantErr: "positive, finite"},
		{in: "-25", wantErr: "positive, finite"},
		{in: "NaN", wantErr: "positive, finite"},
		{in: "nan", wantErr: "positive, finite"},
		{in: "+Inf", wantErr: "positive, finite"},
		{in: "-Inf", wantErr: "positive, finite"},
	}
	for _, tc := range cases {
		got, err := parsePorts(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parsePorts(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parsePorts(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parsePorts(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parsePorts(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestValidateTaskFlags(t *testing.T) {
	for _, k := range taskDUTKinds {
		if err := validateTaskFlags(k, time.Millisecond); err != nil {
			t.Errorf("validateTaskFlags(%q): %v", k, err)
		}
	}
	if err := validateTaskFlags("toaster", time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), `unknown DUT kind "toaster"`) {
		t.Errorf("unknown DUT: err = %v", err)
	}
	if err := validateTaskFlags("sink", 0); err == nil ||
		!strings.Contains(err.Error(), "must be positive") {
		t.Errorf("zero duration: err = %v", err)
	}
	if err := validateTaskFlags("sink", -time.Second); err == nil {
		t.Error("negative duration accepted")
	}
}

// TestRunExitCodes drives run() through its validation error paths: every
// bad invocation must exit 2 with a diagnostic on stderr.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no input", []string{}, "-task or -suite is required"},
		{"bad rate", []string{"-task", "x.nt", "-ports", "0"}, "positive, finite"},
		{"nan rate", []string{"-task", "x.nt", "-ports", "NaN"}, "positive, finite"},
		{"bad duration", []string{"-task", "x.nt", "-duration", "-1ms"}, "must be positive"},
		{"unknown dut", []string{"-task", "x.nt", "-dut", "toaster"}, `unknown DUT kind "toaster"`},
		{"missing task file", []string{"-task", "/nonexistent/x.nt"}, "read task"},
		{"missing suite file", []string{"-suite", "/nonexistent/s.json"}, "suite:"},
		{"negative simworkers", []string{"-suite", "s.json", "-simworkers", "-1"}, "negative"},
		{"pcap without sink", []string{"-task", "x.nt", "-dut", "reflector", "-pcap", "out.pcap"}, "-pcap captures at sink DUTs only"},
		{"results without suite", []string{"-task", "x.nt", "-results", "r.json"}, "-results needs -suite"},
		{"simworkers without suite", []string{"-task", "x.nt", "-simworkers", "4"}, "-simworkers needs -suite"},
		{"bad flag", []string{"-frobnicate"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr = %q, want containing %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestRunSuiteMode runs a tiny real suite through the CLI path end to end:
// a passing scenario exits 0, a failing check exits 1, and the -results
// file is valid JSON recording both.
func TestRunSuiteMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	suite := `{
  "name": "cli-test",
  "scenarios": [
    {
      "name": "tiny",
      "topology": {"ports": [100], "dut": "sink"},
      "program": {
        "name": "tiny",
        "source": [
          "T1 = trigger()",
          "    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])",
          "    .set(length, 64)",
          "    .set(port, 0)"
        ]
      },
      "traffic": {"window_us": 20, "seed": 1},
      "checks": [
        {"name": "traffic flowed", "kind": "threshold", "metric": "sink0.rx_packets", "op": ">", "value": 100},
        {"name": "CHECKVAL", "kind": "threshold", "metric": "sink0.gbps", "op": ">=", "value": GBPS}
      ]
    }
  ]
}`
	write := func(gbps string) string {
		path := filepath.Join(dir, "suite-"+gbps+".json")
		body := strings.ReplaceAll(suite, "GBPS", gbps)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var stdout, stderr bytes.Buffer
	results := filepath.Join(dir, "results.json")
	code := run([]string{"-suite", write("50"), "-results", results}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("passing suite: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "PASS") || !strings.Contains(stdout.String(), "1 passed, 0 failed") {
		t.Errorf("stdout missing pass summary: %s", stdout.String())
	}
	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatalf("results file: %v", err)
	}
	var decoded struct {
		Suite  string `json:"suite"`
		Pass   bool   `json:"pass"`
		Passed int    `json:"passed"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("results file is not JSON: %v", err)
	}
	if decoded.Suite != "cli-test" || !decoded.Pass || decoded.Passed != 1 {
		t.Errorf("results = %+v, want cli-test/pass/1", decoded)
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-suite", write("100000")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("failing suite: exit %d, want 1\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "FAIL") || !strings.Contains(stdout.String(), `check "CHECKVAL"`) {
		t.Errorf("stdout missing failing check detail: %s", stdout.String())
	}
}

// TestRunSuiteContainsPanic is the operator's view of a contained panic: a
// scenario that panics inside the simulator fails alone, exit code 1, and the
// panic value is what the CLI prints — there is no other log to find it in.
// The panic is a real one — netsim refusing to schedule into the past, what a
// cable delay overflowing sim time used to cause — raised by a runner swapped
// in through runWith, because the loader now rejects every suite known to
// make scenario.Run panic (TestSuiteRejectsUnrepresentableNumbers).
func TestRunSuiteContainsPanic(t *testing.T) {
	panicky := func(sc *scenario.Scenario, workers int) (*scenario.RunResult, error) {
		if sc.Name == "boom" {
			sim := netsim.New()
			sim.RunUntil(netsim.Time(netsim.Second))
			sim.At(0, func() {})
		}
		return scenario.Run(sc, workers)
	}
	scenarioJSON := func(name, cableNs string) string {
		return `{
      "name": "` + name + `",
      "topology": {"ports": [100], "dut": "sink", "cable_delay_ns": ` + cableNs + `},
      "program": {"source": "T1 = trigger().set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1]).set(length, 64).set(port, 0)\n"},
      "traffic": {"window_us": 20, "seed": 1},
      "checks": [{"kind": "threshold", "metric": "sink0.rx_packets", "op": ">", "value": 100}]
    }`
	}
	path := filepath.Join(t.TempDir(), "suite.json")
	body := `{"name": "panics", "scenarios": [` +
		scenarioJSON("before", "5") + "," + scenarioJSON("boom", "5") + "," + scenarioJSON("after", "5") + `]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runWith([]string{"-suite", path}, &stdout, &stderr, panicky); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	before := strings.Index(out, "PASS   before")
	boom := strings.Index(out, "FAIL   boom")
	after := strings.Index(out, "PASS   after")
	if before < 0 || boom < before || after < boom {
		t.Errorf("neighbours did not pass around the failure, in input order:\n%s", out)
	}
	if !strings.Contains(out, "scenario panicked: netsim: scheduling event at") {
		t.Errorf("panic value not printed:\n%s", out)
	}
	if !strings.Contains(out, "2 passed, 1 failed") {
		t.Errorf("suite tally wrong:\n%s", out)
	}
}

// TestSuiteRejectsUnrepresentableNumbers: the three suites that used to pass
// validation and die inside netsim ("scheduling event before now") are load
// errors now — exit 2, file:line:col on stderr, nothing run.
func TestSuiteRejectsUnrepresentableNumbers(t *testing.T) {
	for _, tc := range []struct{ name, topology, want string }{
		{"cable delay 1e30", `{"ports": [100], "dut": "sink",
        "cable_delay_ns": 1e30}`, "suite.json:4:27: scenarios[0]: scenario \"x\": cable_delay_ns 1e+30"},
		{"cable delay 1e18", `{"ports": [100], "dut": "sink",
        "cable_delay_ns": 1e18}`, "suite.json:4:27: scenarios[0]: scenario \"x\": cable_delay_ns 1e+18"},
		{"port rate 1e-300", `{"ports": [100,
        1e-300], "dut": "sink"}`, "suite.json:4:9: scenarios[0]: scenario \"x\": port 1 rate 1e-300"},
	} {
		path := filepath.Join(t.TempDir(), "suite.json")
		body := "{\"name\": \"bounds\", \"scenarios\": [{\n  \"name\": \"x\",\n  \"topology\": " + tc.topology + `,
  "program": {"source": "T1 = trigger().set(port, 0)\n"},
  "traffic": {"window_us": 20}
}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-suite", path}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2\nstdout: %s\nstderr: %s", tc.name, code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q does not carry %q", tc.name, stderr.String(), tc.want)
		}
	}
}
