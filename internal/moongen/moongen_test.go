package moongen

import (
	"math"
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/stats"
	"github.com/hypertester/hypertester/internal/testbed"
)

func runGen(t *testing.T, cfg Config, window netsim.Duration) *testbed.Sink {
	t.Helper()
	sim := netsim.New()
	g := New(sim, cfg)
	sink := testbed.NewSink(sim, "sink", cfg.PortGbps)
	sink.RecordTimestamps = true
	testbed.Connect(sim, g.Iface, sink.Iface, 0)
	g.Start(netsim.Time(window))
	sim.RunUntil(netsim.Time(window) + netsim.Time(netsim.Millisecond))
	return sink
}

func TestMaxSpeedSmallPacketsCPUBound(t *testing.T) {
	// One core on a 40G port with 64B frames: CPU-bound at ~15.7 Mpps,
	// well under the 62.5 Mpps line rate (Fig. 9b).
	sink := runGen(t, Config{Name: "mg", PortGbps: 40, FrameLen: 64, Seed: 1}, 2*netsim.Millisecond)
	pps := sink.RatePps() / 1e6
	if pps < 14 || pps > 16.5 {
		t.Fatalf("64B single-core rate = %.2f Mpps, want ~15.7", pps)
	}
	if g := sink.ThroughputGbps(); g > 12 {
		t.Fatalf("64B throughput = %.1f Gbps; one core must not fill 40G", g)
	}
}

func TestMaxSpeedLargePacketsLineRate(t *testing.T) {
	// 1500B frames: line-rate limited, CPU has headroom (Fig. 9b shape).
	sink := runGen(t, Config{Name: "mg", PortGbps: 40, FrameLen: 1500, Seed: 1}, 2*netsim.Millisecond)
	if g := sink.ThroughputGbps(); g < 38 || g > 41 {
		t.Fatalf("1500B throughput = %.1f Gbps, want ~40 (line rate)", g)
	}
}

func TestTenGigSaturatedByOneCore(t *testing.T) {
	// The paper's Fig. 10b deployment: one core per 10G port at 64B.
	sink := runGen(t, Config{Name: "mg", PortGbps: 10, FrameLen: 64, Seed: 1}, 2*netsim.Millisecond)
	if g := sink.ThroughputGbps(); g < 9.4 || g > 10.1 {
		t.Fatalf("throughput = %.2f Gbps, want ~10 (one core saturates 10G)", g)
	}
}

func TestHWRateControlHoldsRate(t *testing.T) {
	target := 1e6 // 1 Mpps
	sink := runGen(t, Config{
		Name: "mg", PortGbps: 40, FrameLen: 64,
		TargetPps: target, HWRateControl: true, Seed: 1,
	}, 10*netsim.Millisecond)
	pps := sink.RatePps()
	if math.Abs(pps-target)/target > 0.02 {
		t.Fatalf("rate = %.0f pps, want ~%.0f", pps, target)
	}
}

func TestHWRateControlErrorMagnitude(t *testing.T) {
	// Inter-departure error with NIC pacing sits at the ~100ns scale —
	// an order of magnitude (or more) above a switch pipeline's few ns.
	target := 1e6
	sink := runGen(t, Config{
		Name: "mg", PortGbps: 40, FrameLen: 64,
		TargetPps: target, HWRateControl: true, Seed: 1,
	}, 20*netsim.Millisecond)
	e := stats.InterDepartureErrors(sink.Timestamps, 1e9/target)
	if e.MAE < 20 || e.MAE > 400 {
		t.Fatalf("MG MAE = %.1f ns, want order of ~100ns", e.MAE)
	}
	if e.RMSE < e.MAE {
		t.Fatalf("RMSE %.1f < MAE %.1f", e.RMSE, e.MAE)
	}
}

func TestSWRateControlWorseThanHW(t *testing.T) {
	target := 1e6
	hw := runGen(t, Config{Name: "hw", PortGbps: 40, FrameLen: 64,
		TargetPps: target, HWRateControl: true, Seed: 1}, 10*netsim.Millisecond)
	sw := runGen(t, Config{Name: "sw", PortGbps: 40, FrameLen: 64,
		TargetPps: target, HWRateControl: false, Seed: 1}, 10*netsim.Millisecond)
	ehw := stats.InterDepartureErrors(hw.Timestamps, 1e9/target)
	esw := stats.InterDepartureErrors(sw.Timestamps, 1e9/target)
	if esw.MAE <= ehw.MAE {
		t.Fatalf("SW pacing MAE %.1f should exceed HW pacing MAE %.1f", esw.MAE, ehw.MAE)
	}
}

func TestPacedStopsAtDeadline(t *testing.T) {
	sink := runGen(t, Config{Name: "mg", PortGbps: 10, FrameLen: 64,
		TargetPps: 1e5, HWRateControl: true, Seed: 1}, 1*netsim.Millisecond)
	want := 100.0 // 1ms at 100Kpps
	if math.Abs(float64(sink.Packets)-want) > 3 {
		t.Fatalf("sent %d packets in 1ms at 100Kpps, want ~100", sink.Packets)
	}
}

func TestCustomBuilder(t *testing.T) {
	// Build receives a running packet index, letting scripts vary fields
	// per packet (the Lua-callback equivalent).
	sim := netsim.New()
	seen := map[int]int{}
	g := New(sim, Config{Name: "mg", PortGbps: 10, TargetPps: 1e6, HWRateControl: true, Seed: 1,
		Build: func(n uint64) []byte { return make([]byte, 64+int(n%3)) }})
	sink := testbed.NewSink(sim, "sink", 10)
	sink.OnPacket = func(pkt *netproto.Packet, at netsim.Time) { seen[pkt.Len()]++ }
	testbed.Connect(sim, g.Iface, sink.Iface, 0)
	g.Start(netsim.Time(100 * netsim.Microsecond))
	sim.Run()
	if len(seen) != 3 {
		t.Fatalf("custom builder sizes seen: %v", seen)
	}
}

func TestTimestampModels(t *testing.T) {
	sim := netsim.New()
	g := New(sim, Config{Name: "mg", PortGbps: 10, FrameLen: 64, Seed: 3})
	base := netsim.Time(1000 * netsim.Microsecond)
	var swErr, hwErr []float64
	for i := 0; i < 500; i++ {
		swErr = append(swErr, g.SWTimestamp(base).Sub(base).Nanoseconds())
		hwErr = append(hwErr, g.HWTimestamp(base).Sub(base).Nanoseconds())
	}
	if m := stats.Mean(swErr); m < 200 {
		t.Fatalf("SW timestamp bias = %.0fns, want large positive", m)
	}
	if m := math.Abs(stats.Mean(hwErr)); m > 2 {
		t.Fatalf("HW timestamp bias = %.1fns, want ~0", m)
	}
	if stats.StdDev(hwErr) > stats.StdDev(swErr) {
		t.Fatal("HW timestamps should be less noisy than SW")
	}
}

func TestScriptLoCCounts(t *testing.T) {
	// Table 5's MoonGen column: tens of lines per app, delay the largest.
	counts := map[string]int{}
	for name, script := range Scripts {
		counts[name] = CountLoC(script)
	}
	for name, c := range counts {
		if c < 30 || c > 90 {
			t.Errorf("%s script LoC = %d, out of Table 5's magnitude", name, c)
		}
	}
	if counts["delay"] <= counts["throughput"] {
		t.Error("delay script should be the longest, as in Table 5")
	}
	if CountLoC("-- only a comment\n\n") != 0 {
		t.Error("comment/blank counting broken")
	}
}
