package hypertester_test

// One sub-benchmark per table and figure of the paper's evaluation (§7).
// `go test -bench=Experiments -benchmem` regenerates every result; each one
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

	hypertester "github.com/hypertester/hypertester"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/raceflag"
	"github.com/hypertester/hypertester/internal/testbed"
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

// BenchmarkExperiments is the evaluation suite, one sub-benchmark per row of
// experiments.Specs(): `-bench 'Experiments/Fig._11'` regenerates Fig. 11
// (the testing package prints spaces in sub-benchmark names as underscores).
func BenchmarkExperiments(b *testing.B) {
	for _, sp := range experiments.Specs() {
		b.Run(sp.ID, func(b *testing.B) { runExperiment(b, sp.Fn) })
	}
}

// BenchmarkHeaderSpace compiles a task whose one query sees a 65 536-tuple
// progression, through a 1-wide key and through the default 5-tuple: the
// cost is header-space enumeration plus exact-key precomputation (§5.2).
func BenchmarkHeaderSpace(b *testing.B) {
	for _, c := range []struct {
		name string
		keys []string
	}{{"1wide", []string{"l4.dport"}}, {"5wide", nil}} {
		b.Run(c.name, func(b *testing.B) {
			task := ntapi.NewTask("sweep")
			task.Trigger().
				Set("sip", ntapi.IP("1.1.0.1")).Set("dip", ntapi.IP("9.9.9.9")).
				Set("sport", ntapi.Range{Start: 0, End: 1<<16 - 1, Step: 1}).
				WithPorts(0)
			task.Query().Reduce(ntapi.AggCount, c.keys...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog, err := compiler.Compile(task, compiler.Options{MaxHeaderSpace: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				if q := prog.Queries[0]; q.HeaderSpaceSize != 1<<16 || q.HeaderSpaceTruncated {
					b.Fatalf("header space %d truncated=%v, want all 65536 tuples", q.HeaderSpaceSize, q.HeaderSpaceTruncated)
				}
			}
		})
	}
}

// BenchmarkCompileCorpus is one parse+compile of every corpus program with
// its experiment's options — what the `compile` workload of ./benchmark
// repeats, less printing.
func BenchmarkCompileCorpus(b *testing.B) {
	specs := experiments.Programs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := s.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestCompileAllocBudget keeps per-tuple allocations out of the two
// programs with the largest header spaces (65 536 and 32 769 tuples): what
// is left is per template, per query and per P4 table.
func TestCompileAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates on its own")
	}
	// About twice what each costs today (3.1k and 7.4k): one allocation per
	// tuple would add 65 536 and 32 769.
	budgets := map[string]float64{"table5_delay": 6200, "case_webscale": 14800}
	for _, s := range experiments.Programs() {
		budget, ok := budgets[s.Name]
		if !ok {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Compile(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Compile(%s): %.0f allocs", s.Name, allocs)
		if allocs > budget {
			t.Errorf("Compile(%s): %.0f allocs/run, budget %.0f", s.Name, allocs, budget)
		}
	}
}

// delayTask is Table 5's delay task at a 200 ns interval, the program of
// the benchmark's delayquery workload: sent and received probes each feed a
// keyed max over all 65536 IPv4 ids.
const delayTask = `
T1 = trigger()
    .set([dip, sip, proto], [9.9.9.9, 1.1.0.1, udp])
    .set([dport, sport], [7, 7])
    .set(ipv4.id, range(0, 65535, 1))
    .set(interval, 200ns)
    .set(port, 0)
Q1 = query(T1).map(p -> (ipv4.id)).reduce(keys={ipv4.id}, func=max)
Q2 = query().map(p -> (ipv4.id)).reduce(keys={ipv4.id}, func=max)
Q3 = query().map(p -> (pkt_len)).reduce(func=sum)
`

func delayPlan(tb testing.TB) *compiler.QueryPlan {
	tb.Helper()
	task, err := ntapi.Parse("delay", delayTask)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := compiler.Compile(task, compiler.Options{RecircPaths: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return prog.QueryByID(1)
}

// BenchmarkCounterTableUpdate is the loop behind the benchmark's
// htpr.counter_update_ns: one update cycling over 65536 keys plus the KV
// drain a template pass would do.
func BenchmarkCounterTableUpdate(b *testing.B) {
	ct := htpr.NewCounterTable(delayPlan(b))
	key := make([]uint64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = uint64(i) & 0xffff
		ct.Update(key, uint64(i))
		ct.DrainOne()
	}
}

// BenchmarkCounterTableCollect collects a table holding 65536 keys.
func BenchmarkCounterTableCollect(b *testing.B) {
	ct := htpr.NewCounterTable(delayPlan(b))
	key := make([]uint64, 1)
	for id := uint64(0); id < 1<<16; id++ {
		key[0] = id
		ct.Update(key, id)
		ct.DrainOne()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := len(ct.Collect()); rows != 1<<16 {
			b.Fatalf("collected %d keys, want 65536", rows)
		}
	}
}

// TestAblationAAllocBudget holds Ablation A to ROADMAP item 2's number. It
// drives a counter table with 8 updates for each of 4096 + 16384 flows:
// one allocation per update would be 164k, one per flow 20k.
func TestAblationAAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates on its own")
	}
	allocs := testing.AllocsPerRun(2, func() { experiments.AblationSketchAccuracy(benchCfg) })
	t.Logf("Ablation A: %.0f allocs", allocs)
	if allocs > 20000 {
		t.Errorf("Ablation A: %.0f allocs/run, budget 20000", allocs)
	}
}

// TestDelayQueryAllocBudget runs a short window of the delay task against
// a reflector: with every probe updating a sent-side and a received-side
// counter table, a steady-state packet must cost under one allocation
// anywhere between the tester, the cable and the reflector.
func TestDelayQueryAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates on its own")
	}
	ht := hypertester.New(hypertester.Config{Ports: []float64{100}, Seed: 1})
	refl := testbed.NewReflector(ht.Sim, "reflector", 100)
	testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, testbed.DefaultCableDelay)
	if err := ht.LoadTaskSource("delay", delayTask); err != nil {
		t.Fatal(err)
	}
	if err := ht.Start(); err != nil {
		t.Fatal(err)
	}
	ht.RunFor(200 * netsim.Microsecond)
	port := ht.Port(0)
	before := port.TxPackets + port.RxPackets
	allocs := testing.AllocsPerRun(1, func() { ht.RunFor(2 * netsim.Millisecond) }) // mean of 1 run after 1 warm-up
	packets := float64(port.TxPackets+port.RxPackets-before) / 2
	t.Logf("%.0f allocs over %.0f tester-port packets", allocs, packets)
	if packets < 15000 || refl.Reflected == 0 {
		t.Fatalf("window too quiet: %.0f packets, %d reflected", packets, refl.Reflected)
	}
	if allocs > packets {
		t.Errorf("%.0f allocs for %.0f packets, budget 1 per packet", allocs, packets)
	}
}

// TestAllExperimentsRun checks that every experiment is wired into All, that
// the parallel runner returns them in paper order, and that each headline
// equals testdata/headlines.golden bit for bit: the experiments are
// deterministic, so any drift is a behaviour change somewhere below them.
func TestAllExperimentsRun(t *testing.T) {
	var stats experiments.SimStats
	results := experiments.All(experiments.Config{Quick: true, Seed: 1, Stats: &stats})
	if len(results) != 18 {
		t.Fatalf("All() ran %d experiments, want 18", len(results))
	}
	// The loop model's residual tie class (DESIGN.md §9.6) is counted, not
	// assumed: a same-picosecond ordering it cannot decide would show here.
	if _, loop := stats.Totals(); loop.ResidualTies != 0 {
		t.Errorf("%d of %d foreign same-picosecond ties were undecided by (schedAt, parent schedAt)",
			loop.ResidualTies, loop.Ties)
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
