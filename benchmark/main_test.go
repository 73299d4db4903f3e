package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() for every workload child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// printed parses `workload name unit value ...` lines into
// workload -> metric -> [unit, value], failing on a repeated metric.
func printed(t *testing.T, out string) map[string]map[string][2]string {
	t.Helper()
	got := map[string]map[string][2]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || strings.HasPrefix(line, "{") || strings.HasPrefix(line, "#") {
			continue
		}
		if f[1] == "FAILED" {
			t.Errorf("check failed: %s", line)
			continue
		}
		if !nameRE.MatchString(f[0]) || !nameRE.MatchString(f[1]) {
			t.Errorf("bad name in %q", line)
		}
		if got[f[0]] == nil {
			got[f[0]] = map[string][2]string{}
		}
		if _, dup := got[f[0]][f[1]]; dup {
			t.Errorf("%s %s printed twice", f[0], f[1])
		}
		got[f[0]][f[1]] = [2]string{f[2], f[3]}
	}
	return got
}

func runBenchmark(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestSmoke runs every workload and the kernels pass at 1/50 scale and holds
// the output to BENCHMARK.json: every workload and metric it names is
// printed exactly once with its unit, no check fails, and the simulated
// fingerprints repeat between the untraced and the traced run.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, describe()) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -describe`; regenerate it")
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != 5 || len(doc.EndToEnd) == 0 || len(doc.PerLayer) == 0 || len(doc.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json: %d workloads, %d end-to-end, %d per-layer metrics",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}
	for _, w := range doc.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	out := t.TempDir()
	common := []string{"-scale", "0.02", "-seconds", "0.1", "-out", out}
	plain := printed(t, runBenchmark(t, common...))
	traced := printed(t, runBenchmark(t, append([]string{"-trace", "1"}, common...)...))

	layerOf := map[string]bool{}
	for _, m := range layerMetrics {
		layerOf[m.Name] = true
	}
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		for _, m := range doc.EndToEnd {
			if got, ok := plain[w.Name][m.Name]; !ok || got[0] != m.Unit {
				t.Errorf("untraced %s %s: printed %v, want unit %s", w.Name, m.Name, got, m.Unit)
			}
		}
		for _, m := range doc.PerLayer {
			from := kernelsName
			if layerOf[m.Name] {
				from = w.Name
			}
			if got, ok := traced[from][m.Name]; !ok || got[0] != m.Unit {
				t.Errorf("traced %s %s: printed %v, want unit %s", from, m.Name, got, m.Unit)
			}
		}
		if got := plain[w.Name]["fail_ratio"][1]; got != "0" {
			t.Errorf("%s fail_ratio = %q", w.Name, got)
		}
		a, b := plain[w.Name]["sim_fingerprint"][1], traced[w.Name]["sim_fingerprint"][1]
		if a == "" || a != b {
			t.Errorf("%s fingerprint does not repeat: %q then %q", w.Name, a, b)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("span file: %v", err)
		}
	}
	if plain["linerate64"]["sim_fingerprint_half"][1] != plain["linerate64-par"]["sim_fingerprint"][1] {
		t.Errorf("linerate64-par does not equal linerate64 over the common window")
	}
}

// TestDriverLine checks the machine-readable last line a single-workload run
// prints: exactly the keys the harness reads, with every end-to-end metric.
func TestDriverLine(t *testing.T) {
	out := runBenchmark(t, "--workload", "compile", "--seed", "2", "--seconds", "0.1", "--trace", "0", "-scale", "0.1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Fatalf("result %s", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.Name]; got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("%s = %+v", m.Name, got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
}
