package hypertester_test

// Host-cost guards that need the whole stack: allocation budgets for the
// compiler, a counter-table-heavy experiment and the delay query path, and
// BenchmarkHeaderSpace, the one compile cost without a row in the repo
// benchmark's per-layer ledger (`go run ./benchmark -trace 1`).

import (
	"testing"

	hypertester "github.com/hypertester/hypertester"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/raceflag"
	"github.com/hypertester/hypertester/internal/testbed"
)

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

// TestAblationAAllocBudget holds Ablation A to ROADMAP item 2's number. It
// drives a counter table with 8 updates for each of 4096 + 16384 flows:
// one allocation per update would be 164k, one per flow 20k.
func TestAblationAAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates on its own")
	}
	allocs := testing.AllocsPerRun(2, func() { experiments.AblationSketchAccuracy(experiments.Config{Quick: true, Seed: 1}) })
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
