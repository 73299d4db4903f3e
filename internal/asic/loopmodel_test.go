package asic

import (
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/raceflag"
)

// TestDelayMemosMatchTheFormulas: the remembered wire time per port and
// replication delay per switch are the uncached float formulas, bit for bit,
// for every frame length 64–1518 at every port rate — asked in an order that
// keeps evicting the memo's slots, and again in an order that keeps hitting
// them.
func TestDelayMemosMatchTheFormulas(t *testing.T) {
	sw := New(Config{Name: "memo", Sim: netsim.New(), PortGbps: []float64{100, 40, 10, 25}})
	check := func(n int) {
		t.Helper()
		for id := 0; id < sw.NumPorts(); id++ {
			pt := sw.Port(id)
			if got, want := pt.wire.Time(n, pt.Gbps), netsim.Ns(netproto.WireTimeNs(n, pt.Gbps)); got != want {
				t.Fatalf("port %d (%v Gbps) wire time of %d B: memo %v, formula %v", id, pt.Gbps, n, got, want)
			}
		}
		if got, want := sw.mcastDelay(n), netsim.Ns(McastDelayNs(n)); got != want {
			t.Fatalf("replication delay of %d B: memo %v, formula %v", n, got, want)
		}
	}
	for n := 64; n <= 1518; n++ {
		check(n)
		check(n + 8) // same memo slot, different length
		check(n)
	}
	for n := 1518; n >= 64; n-- {
		check(n)
	}
	// A port whose rate changes forgets what it remembered.
	pt := sw.Port(0)
	before := pt.wire.Time(64, pt.Gbps)
	pt.Gbps = 50
	if got, want := pt.wire.Time(64, pt.Gbps), netsim.Ns(netproto.WireTimeNs(64, 50)); got != want || got == before {
		t.Fatalf("after a rate change: memo %v, formula %v (was %v)", got, want, before)
	}
}

// bounceOracle declares template 1 idle forever — a copy that only
// recirculates, as the loop processor below makes it.
type bounceOracle struct{ passes uint64 }

func (o *bounceOracle) IdleUntil(k int) netsim.Time {
	if k == 1 {
		return netsim.MaxTime
	}
	return 0
}
func (o *bounceOracle) AccountIdle(k int, n uint64) { o.passes += n }

// loopSwitch builds a switch whose ingress recirculates template packets,
// with n copies injected 10 ns apart.
func loopSwitch(n int) (*netsim.Sim, *Switch) {
	sim := netsim.New()
	sw := New(Config{Name: "loop", Sim: sim, PortGbps: []float64{100}, Seed: 5})
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
		if p.Meta.TemplateID != 0 {
			p.Recirculate = true
		}
	}))
	for i := 0; i < n; i++ {
		pkt := netproto.NewPacket(64)
		clear(pkt.Data)
		pkt.Meta.TemplateID = 1
		sim.After(netsim.Duration(i)*10*netsim.Nanosecond, func() { sw.InjectFromCPU(pkt) })
	}
	return sim, sw
}

// TestLoopModelMatchesTheEventPath is the model without a tester around it:
// twenty copies bounce around the recirculation path for 50 us, once as
// events and once modelled; port counters, pipeline counters, the busy-until
// chain and the jitter stream end up identical, on a fraction of the events.
func TestLoopModelMatchesTheEventPath(t *testing.T) {
	simA, a := loopSwitch(20)
	simB, b := loopSwitch(20)
	o := &bounceOracle{}
	b.SetIdleOracle(o)
	for _, cut := range []netsim.Duration{3 * netsim.Microsecond, 7_000_123, 50 * netsim.Microsecond} {
		simA.RunUntil(netsim.Time(cut))
		simB.RunUntil(netsim.Time(cut))
		pa, pb := a.Port(RecircPortBase), b.Port(RecircPortBase)
		if pa.TxPackets != pb.TxPackets || pa.RxBytes != pb.RxBytes || pa.txBusyUntil != pb.txBusyUntil ||
			a.Ingress.Packets != b.Ingress.Packets || a.Egress.Packets != b.Egress.Packets {
			t.Fatalf("at %v: events tx %d rx %dB busy %v pipelines %d/%d; modelled tx %d rx %dB busy %v pipelines %d/%d", cut,
				pa.TxPackets, pa.RxBytes, pa.txBusyUntil, a.Ingress.Packets, a.Egress.Packets,
				pb.TxPackets, pb.RxBytes, pb.txBusyUntil, b.Ingress.Packets, b.Egress.Packets)
		}
	}
	la, _ := a.NextJitterDraws()
	lb, _ := b.NextJitterDraws()
	if la != lb {
		t.Fatal("loop-jitter streams diverged")
	}
	st := b.LoopStats()
	if st.ElidedPasses == 0 || st.ElidedPasses != o.passes || st.Modelled != 20 {
		t.Fatalf("model stats %+v, oracle credited %d passes", st, o.passes)
	}
	if simB.Executed*10 > simA.Executed {
		t.Fatalf("modelled run executed %d events, event-per-hop run %d: want under a tenth", simB.Executed, simA.Executed)
	}
	// Removing the oracle hands the copies back: the run goes on identically.
	b.SetIdleOracle(nil)
	simA.RunFor(5 * netsim.Microsecond)
	simB.RunFor(5 * netsim.Microsecond)
	if pa, pb := a.Port(RecircPortBase), b.Port(RecircPortBase); pa.TxPackets != pb.TxPackets || pa.txBusyUntil != pb.txBusyUntil {
		t.Fatalf("after dissolving: events tx %d busy %v, dissolved tx %d busy %v", pa.TxPackets, pa.txBusyUntil, pb.TxPackets, pb.txBusyUntil)
	}
	if got := b.LoopStats(); got.ElidedPasses != st.ElidedPasses || got.Modelled != 0 {
		t.Fatalf("stats after dissolving: %+v, want the %d passes kept and nothing modelled", got, st.ElidedPasses)
	}
}

// timedOracle is idle until a deadline the processor pushes out each time a
// pass reaches it — the replicator's timer, without a tester around it.
type timedOracle struct {
	deadline netsim.Time
	fired    int
}

func (o *timedOracle) IdleUntil(int) netsim.Time { return o.deadline }
func (o *timedOracle) AccountIdle(int, uint64)   {}

// TestLoopModelSteadyStateZeroAllocs: once the queues have grown to the
// loop's population, sleeping (passes accounted), waking (by deadline: the
// stamped pump runs the due pass for real; by WakeLoop: the conservative
// pump re-asks the oracle) and going back to sleep allocate nothing.
func TestLoopModelSteadyStateZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	sim := netsim.New()
	sw := New(Config{Name: "loop", Sim: sim, PortGbps: []float64{100}, Seed: 5})
	o := &timedOracle{deadline: netsim.Time(netsim.Microsecond)}
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
		if now := sim.Now(); now >= o.deadline {
			o.deadline = now.Add(netsim.Microsecond)
			o.fired++
		}
		p.Recirculate = true
	}))
	sw.SetIdleOracle(o)
	for i := 0; i < 40; i++ {
		pkt := netproto.NewPacket(64)
		clear(pkt.Data)
		pkt.Meta.TemplateID = 1
		sw.InjectFromCPU(pkt)
	}
	sim.RunFor(20 * netsim.Microsecond)
	fired, elided := o.fired, sw.LoopStats().ElidedPasses
	allocs := testing.AllocsPerRun(50, func() {
		sim.RunFor(1500 * netsim.Nanosecond) // at least one deadline
		sw.WakeLoop()
		sim.RunFor(700 * netsim.Nanosecond)
		_ = sw.Port(RecircPortBase).TxPackets // a reader syncs
	})
	st := sw.LoopStats()
	if o.fired < fired+50 || st.ElidedPasses == elided || st.Wakes < 50 || st.Modelled == 0 {
		t.Fatalf("the cycle did not run: %d deadlines met, stats %+v", o.fired-fired, st)
	}
	if allocs != 0 {
		t.Fatalf("sleep -> wake -> sleep allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestDescribeSaysWhereThePassesWent: the walk carries the loop counters, and
// it syncs the model before it reads a recirculation port — a walk taken
// inside an event, between boundaries, is exact.
func TestDescribeSaysWhereThePassesWent(t *testing.T) {
	simA, a := loopSwitch(10)
	simB, b := loopSwitch(10)
	b.SetIdleOracle(&bounceOracle{})
	var inEventA, inEventB map[string]any
	describe := func(sw *Switch, into *map[string]any) {
		r := obs.NewRegistry()
		sw.Describe(r, "loop")
		*into = r.Snapshot()
	}
	simA.At(netsim.Time(30*netsim.Microsecond+123), func() { describe(a, &inEventA) })
	simB.At(netsim.Time(30*netsim.Microsecond+123), func() { describe(b, &inEventB) })
	simA.RunFor(40 * netsim.Microsecond)
	simB.RunFor(40 * netsim.Microsecond)
	for _, key := range []string{"loop.recirc0.tx_packets", "loop.recirc0.rx_bytes"} {
		if inEventA[key] != inEventB[key] || inEventA[key] == 0.0 {
			t.Errorf("%s read inside an event: %v as events, %v modelled", key, inEventA[key], inEventB[key])
		}
	}
	var snapA, snapB map[string]any
	describe(a, &snapA)
	describe(b, &snapB)
	for _, key := range []string{"loop.loop.elided_passes", "loop.loop.wakes", "loop.loop.catchup_max_passes", "loop.loop.live_hops",
		"loop.loop.ties", "loop.loop.residual_ties"} {
		if _, ok := snapB[key]; !ok {
			t.Errorf("metric %s is not recorded", key)
		}
	}
	if snapB["loop.loop.elided_passes"].(float64) == 0 || snapA["loop.loop.elided_passes"].(float64) != 0 {
		t.Errorf("elided passes: %v with an oracle, %v without", snapB["loop.loop.elided_passes"], snapA["loop.loop.elided_passes"])
	}
}
