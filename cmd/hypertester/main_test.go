package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/scenario"
	"github.com/hypertester/hypertester/internal/testbed"
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
		{in: "1e999", wantErr: `bad port rate "1e999"`},
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

// TestRunExitCodes drives run() through its validation error paths: every
// bad invocation must exit 2 with a diagnostic on stderr.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no input", []string{}, "-task or -suite is required"},
		// Range errors are the scenario loader's own (scenario.Validate).
		{"bad rate", []string{"-task", "x.nt", "-ports", "0"}, "port 0 rate 0 Gbps is not positive"},
		{"nan rate", []string{"-task", "x.nt", "-ports", "NaN"}, "port 0 rate NaN Gbps is not positive"},
		{"infinite rate", []string{"-task", "x.nt", "-ports", "100,+Inf"}, "port 1 rate +Inf Gbps is outside [0.001, 100000]"},
		// Unbounded, the first is a netsim panic ("event at -9.2e+06s stamped
		// as scheduled at 6.36us") and the second — the longest time.Duration,
		// past the picosecond clock — a zero-length run reported as 2562047h
		// of virtual time with exit 0.
		{"unserializable rate", []string{"-task", "../../tasks/throughput.nt", "-ports", "1e-300"}, "port 0 rate 1e-300 Gbps is outside [0.001, 100000]"},
		{"duration past the clock", []string{"-task", "../../tasks/throughput.nt", "-duration", "2562047h"}, "exceeds 3.6e+09 (one hour of virtual time)"},
		{"bad duration", []string{"-task", "x.nt", "-duration", "-1ms"}, "traffic window -1000 us is not positive"},
		{"zero duration", []string{"-task", "x.nt", "-duration", "0"}, "traffic window 0 us is not positive"},
		{"unknown dut", []string{"-task", "x.nt", "-dut", "toaster"}, `unknown dut kind "toaster" (want one of sink, reflector, httpfarm, scantarget, hhsink)`},
		{"uncompilable task", []string{"-task", "main_test.go"}, "compile:"},
		{"missing task file", []string{"-task", "/nonexistent/x.nt"}, "read task"},
		{"missing suite file", []string{"-suite", "/nonexistent/s.json"}, "suite:"},
		{"negative simworkers", []string{"-suite", "s.json", "-simworkers", "-1"}, "negative"},
		{"pcap without sink", []string{"-task", "x.nt", "-dut", "reflector", "-pcap", "out.pcap"}, "-pcap captures at sink DUTs only"},
		{"results without suite", []string{"-task", "x.nt", "-results", "r.json"}, "-results needs -suite"},
		{"simworkers without suite", []string{"-task", "x.nt", "-simworkers", "4"}, "-simworkers needs -suite"},
		// Suite scenarios carry their own program, topology, traffic and seed.
		{"seed in suite mode", []string{"-suite", "s.json", "-seed", "7"}, "suite mode ignores -seed:"},
		{"task in suite mode", []string{"-suite", "s.json", "-task", "x.nt"}, "suite mode ignores -task:"},
		{"topology in suite mode", []string{"-suite", "s.json", "-ports", "100", "-duration", "1ms", "-dut", "reflector"}, "suite mode ignores -duration, -dut, -ports:"},
		{"compile-only flags in suite mode", []string{"-suite", "s.json", "-p4", "-p4_16", "-resources"}, "suite mode ignores -p4, -p4_16, -resources:"},
		{"pcap in suite mode", []string{"-suite", "s.json", "-pcap", "out.pcap"}, "suite mode ignores -pcap:"},
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
			if stdout.Len() != 0 {
				t.Errorf("a rejected invocation printed a report: %s", stdout.String())
			}
		})
	}
}

// TestRunTaskMode is the -task happy path: every shipped task against the
// DUT it is written for exits 0, prints a non-zero fire count for each of its
// triggers, a line per query, and the DUT's own metrics under the names suite
// checks use.
func TestRunTaskMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cases := []struct {
		task, dut string
		triggers  int
		queries   int
		want      []string // substrings of stdout
	}{
		{"throughput", "sink", 1, 2, []string{"sink0.rx_packets = ", "sink0.gbps = 99.9"}},
		{"synflood", "sink", 1, 0, []string{"sink0.gbps = 99.9"}},
		{"delay", "reflector", 1, 1, []string{"reflector0.reflected = ", "delay: mean "}},
		{"poisson_loss", "reflector", 1, 2, []string{"reflector0.reflected = "}},
		{"webtest", "httpfarm", 5, 5, []string{"httpfarm0.handshakes = ", "httpfarm0.closed = "}},
		{"ipscan", "scantarget", 1, 1, []string{"scantarget0.probes_seen = ", "distinct keys: "}},
		// -task shares the suites' DUT catalogue, hhsink included.
		{"throughput", "hhsink", 1, 2, []string{"sink0.gbps = 99.9", "hh0.flows = 1\n", "hh0.underestimates = 0\n"}},
	}
	fired := regexp.MustCompile(`(?m)^trigger \w+: fired (\d+) times$`)
	for _, tc := range cases {
		t.Run(tc.task+"/"+tc.dut, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-task", "../../tasks/" + tc.task + ".nt", "-dut", tc.dut, "-duration", "1ms"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) = %d\nstderr: %s", args, code, stderr.String())
			}
			out := stdout.String()
			if !strings.Contains(out, `task "`+tc.task+`" ran for 1ms of virtual time`) {
				t.Errorf("no run header:\n%s", out)
			}
			fires := fired.FindAllStringSubmatch(out, -1)
			if len(fires) != tc.triggers {
				t.Errorf("%d trigger lines, want %d:\n%s", len(fires), tc.triggers, out)
			}
			for _, f := range fires {
				if f[1] == "0" {
					t.Errorf("%s: a trigger never fired", f[0])
				}
			}
			if n := strings.Count(out, "\nquery "); n != tc.queries {
				t.Errorf("%d query lines, want %d:\n%s", n, tc.queries, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("stdout lacks %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestRunTaskPcap: -pcap writes every frame the sinks received, readable
// back, and the count it prints is the count in the file and at the sinks.
func TestRunTaskPcap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pcap")
	var stdout, stderr bytes.Buffer
	args := []string{"-task", "../../tasks/throughput.nt", "-ports", "100,100", "-duration", "50us", "-pcap", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, code, stderr.String())
	}
	var wrote, sink0, sink1 int
	for _, line := range strings.Split(stdout.String(), "\n") {
		fmt.Sscanf(line, "wrote %d frames", &wrote)
		fmt.Sscanf(line, "sink0.rx_packets = %d", &sink0)
		fmt.Sscanf(line, "sink1.rx_packets = %d", &sink1)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frames, err := testbed.ReadPcap(f)
	if err != nil {
		t.Fatalf("capture does not read back: %v", err)
	}
	if wrote == 0 || len(frames) != wrote || sink0+sink1 != wrote {
		t.Errorf("printed %d frames, file holds %d, sinks counted %d+%d", wrote, len(frames), sink0, sink1)
	}
	if len(frames) > 0 && len(frames[0].Data) != 64 {
		t.Errorf("first captured frame is %d bytes, want the task's 64", len(frames[0].Data))
	}
}

// TestRunCompileOnly: -p4, -p4_16 and -resources print what the compiler
// produced and simulate nothing.
func TestRunCompileOnly(t *testing.T) {
	for flag, want := range map[string]string{
		"-p4":        "parser start {",
		"-p4_16":     "#include <tna.p4>",
		"-resources": "resources (% of switch.p4):",
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-task", "../../tasks/delay.nt", "-dut", "reflector", flag}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d\nstderr: %s", args, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, want) {
			t.Errorf("%s output lacks %q:\n%.400s", flag, want, out)
		}
		if strings.Contains(out, "ran for") || strings.Contains(out, "reflector0.") {
			t.Errorf("%s ran the task:\n%.400s", flag, out)
		}
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
