package hypertester_test

// One benchmark per table and figure of the paper's evaluation (§7).
// `go test -bench=. -benchmem` regenerates every result; each benchmark
// prints its paper-style table once and reports the experiment's headline
// number (shared with cmd/htbench via experiments.Headline) as a custom
// metric. Quick-mode experiment windows keep the suite fast; run
// cmd/htbench without -quick for tighter statistics.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/experiments"
)

var benchCfg = experiments.Config{Quick: true, Seed: 1}

// runExperiment executes fn once per benchmark invocation, prints the table
// on the first run, and reports the experiment's headline metric. A result
// whose headline cell is missing or unparseable FAILS the benchmark — a
// broken experiment must not report a fake 0 as its number of record.
func runExperiment(b *testing.B, fn func(experiments.Config) *experiments.Result) {
	b.Helper()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = fn(benchCfg)
	}
	if res == nil {
		b.Fatal("experiment returned nil")
	}
	for _, n := range res.Notes {
		if strings.HasPrefix(n, "ERROR") {
			b.Fatal(n)
		}
	}
	b.StopTimer()
	v, unit, err := experiments.Headline(res)
	if err != nil {
		b.Fatalf("headline metric: %v", err)
	}
	b.ReportMetric(v, unit)
	b.Logf("\n%s", res.String())
}

func BenchmarkTable5_LoC(b *testing.B)                { runExperiment(b, experiments.Table5LoC) }
func BenchmarkFig9_SinglePortThroughput(b *testing.B) { runExperiment(b, experiments.Fig9SinglePort) }
func BenchmarkFig10_MultiPort(b *testing.B)           { runExperiment(b, experiments.Fig10MultiPort) }
func BenchmarkFig11_RateControl40G(b *testing.B) {
	runExperiment(b, experiments.Fig11RateControl40G)
}
func BenchmarkFig12_RateControl100G(b *testing.B) {
	runExperiment(b, experiments.Fig12RateControl100G)
}
func BenchmarkFig13_RandomQQ(b *testing.B)    { runExperiment(b, experiments.Fig13RandomQQ) }
func BenchmarkFig14_Accelerator(b *testing.B) { runExperiment(b, experiments.Fig14Accelerator) }
func BenchmarkFig15_Replicator(b *testing.B)  { runExperiment(b, experiments.Fig15Replicator) }
func BenchmarkFig16_StatCollection(b *testing.B) {
	runExperiment(b, experiments.Fig16StatCollection)
}
func BenchmarkFig17_ExactMatch(b *testing.B) { runExperiment(b, experiments.Fig17ExactMatch) }
func BenchmarkTable6_Cost(b *testing.B)      { runExperiment(b, experiments.Table6Cost) }
func BenchmarkTable7_Resources(b *testing.B) { runExperiment(b, experiments.Table7Resources) }
func BenchmarkTable8_SynFlood(b *testing.B)  { runExperiment(b, experiments.Table8SynFlood) }
func BenchmarkFig18_DelayTesting(b *testing.B) {
	runExperiment(b, experiments.Fig18DelayTesting)
}
func BenchmarkAblationA_SketchAccuracy(b *testing.B) {
	runExperiment(b, experiments.AblationSketchAccuracy)
}
func BenchmarkAblationB_CuckooOccupancy(b *testing.B) {
	runExperiment(b, experiments.AblationCuckooOccupancy)
}
func BenchmarkAblationC_Amplification(b *testing.B) {
	runExperiment(b, experiments.AblationTemplateAmplification)
}
func BenchmarkCaseStudy_WebScale(b *testing.B) { runExperiment(b, experiments.CaseWebScale) }

// TestAllExperimentsRun checks that every experiment is wired into All, that
// the parallel runner returns them in paper order, and that each headline
// equals testdata/headlines.golden bit for bit: the experiments are
// deterministic, so any drift is a behaviour change somewhere below them.
func TestAllExperimentsRun(t *testing.T) {
	results := experiments.All(experiments.Config{Quick: true, Seed: 1})
	if len(results) != 18 {
		t.Fatalf("All() ran %d experiments, want 18", len(results))
	}
	seen := map[string]bool{}
	var got strings.Builder
	for _, r := range results {
		if r == nil || len(r.Rows) == 0 {
			t.Fatalf("experiment %+v has no rows", r)
		}
		for _, n := range r.Notes {
			if strings.HasPrefix(n, "ERROR") {
				t.Fatalf("%s failed: %s", r.ID, n)
			}
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
		if testing.Verbose() {
			fmt.Println(r.String())
		}
		v, unit, err := experiments.Headline(r)
		if err != nil {
			t.Fatalf("headline metric: %v", err)
		}
		fmt.Fprintf(&got, "%s\t%s\t%s\n", r.ID, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}

	golden, err := os.ReadFile("testdata/headlines.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if !strings.HasPrefix(line, "#") {
			want.WriteString(line)
		}
	}
	if got.String() != want.String() {
		t.Errorf("headlines drifted from testdata/headlines.golden:\n--- got\n%s--- want\n%s", got.String(), want.String())
	}
}
