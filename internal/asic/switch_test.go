package asic

import (
	"math"
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
)

func newTestSwitch(t *testing.T, ports int) (*netsim.Sim, *Switch) {
	t.Helper()
	sim := netsim.New()
	gbps := make([]float64, ports)
	for i := range gbps {
		gbps[i] = 100
	}
	sw := New(Config{Name: "sw", Sim: sim, PortGbps: gbps, Seed: 1})
	return sim, sw
}

func frame(t *testing.T, size int) *netproto.Packet {
	t.Helper()
	raw, err := netproto.BuildUDP(netproto.UDPSpec{
		SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
		SrcPort: 1, DstPort: 2, FrameLen: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &netproto.Packet{Data: raw}
}

func TestUnicastForwarding(t *testing.T) {
	sim, sw := newTestSwitch(t, 2)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.EgressPort = 1 }))

	var gotAt netsim.Time
	var got *netproto.Packet
	sw.Port(1).SetPeer(func(pkt *netproto.Packet, at netsim.Time) { got, gotAt = pkt, at })

	sw.Port(0).Receive(frame(t, 64))
	sim.Run()

	if got == nil {
		t.Fatal("packet not forwarded")
	}
	// Latency = ingress + TM + egress + MACtx + serialization(64B@100G).
	wantNs := float64(IngressLatencyNs+TMLatencyNs+EgressLatencyNs+MACTxLatencyNs) + netproto.WireTimeNs(64, 100)
	if math.Abs(gotAt.Nanoseconds()-wantNs) > 0.5 {
		t.Fatalf("forwarding latency = %.1fns, want %.1f", gotAt.Nanoseconds(), wantNs)
	}
	if sw.Port(1).TxPackets != 1 || sw.Port(0).RxPackets != 1 {
		t.Fatal("port counters wrong")
	}
}

func TestNoRouteDropped(t *testing.T) {
	sim, sw := newTestSwitch(t, 1)
	sw.Port(0).Receive(frame(t, 64))
	sim.Run()
	if sw.NoRouteDrops != 1 {
		t.Fatalf("NoRouteDrops = %d", sw.NoRouteDrops)
	}
}

func TestPipelineDropCounted(t *testing.T) {
	sim, sw := newTestSwitch(t, 1)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.Drop = true }))
	sw.Port(0).Receive(frame(t, 64))
	sim.Run()
	if sw.PipelineDrops != 1 {
		t.Fatalf("PipelineDrops = %d", sw.PipelineDrops)
	}
}

func TestRecirculationRTTCalibration(t *testing.T) {
	// A packet that recirculates forever: measure loop RTT against the
	// paper's 570 ns (64 B) with RMSE < 5 ns (Fig. 14a).
	for _, size := range []int{64, 512, 1500} {
		sim, sw := newTestSwitch(t, 1)
		var arrivals []netsim.Time
		sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
			if p.Meta.InPort >= RecircPortBase || p.Meta.InPort == 0 {
				arrivals = append(arrivals, netsim.Time(p.Meta.IngressPs))
			}
			p.Recirculate = true
		}))
		sw.Port(0).Receive(frame(t, size))
		sim.RunUntil(netsim.Time(200 * netsim.Microsecond))

		if len(arrivals) < 100 {
			t.Fatalf("size %d: only %d loops", size, len(arrivals))
		}
		var rtts []float64
		for i := 2; i < len(arrivals); i++ { // skip the front-panel hop
			rtts = append(rtts, arrivals[i].Sub(arrivals[i-1]).Nanoseconds())
		}
		mean, rmse := meanAndRMSE(rtts)
		want := LoopRTTNs(size)
		if math.Abs(mean-want) > 2 {
			t.Errorf("size %d: mean RTT %.1fns, want %.1f", size, mean, want)
		}
		if rmse > 5 {
			t.Errorf("size %d: RTT RMSE %.2fns, want <5 (paper Fig. 14a)", size, rmse)
		}
		if size == 64 && math.Abs(want-570) > 0.5 {
			t.Errorf("calibration drifted: LoopRTTNs(64) = %.2f, want 570", want)
		}
	}
}

func meanAndRMSE(xs []float64) (mean, rmse float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

func TestAcceleratorCapacityCalibration(t *testing.T) {
	// Paper §7.3: 89 64-byte template packets per recirculation path.
	if got := AcceleratorCapacity(64); got != 89 {
		t.Fatalf("AcceleratorCapacity(64) = %d, want 89", got)
	}
	// Larger packets: fewer fit (RTT grows slower than serialization).
	if got := AcceleratorCapacity(1500); got >= 89 || got < 1 {
		t.Fatalf("AcceleratorCapacity(1500) = %d, want in [1,89)", got)
	}
}

func TestMulticastReplication(t *testing.T) {
	sim, sw := newTestSwitch(t, 4)
	if err := sw.Mcast.SetGroup(1, []CopySpec{{Port: 1, Rid: 10}, {Port: 2, Rid: 20}, {Port: 3, Rid: 30}}); err != nil {
		t.Fatal(err)
	}
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.McastGroup = 1 }))

	got := map[int]*netproto.Packet{}
	var sendAt netsim.Time
	var arriveAt []netsim.Time
	// Replication metadata is visible inside the switch (egress pipeline)
	// but stripped before the frame leaves on the wire.
	ridsSeen := map[int]int{}
	sw.Egress.Add(ProcessorFunc(func(p *PHV) { ridsSeen[p.EgressPort] = p.Meta.ReplicaID }))
	for _, pid := range []int{1, 2, 3} {
		pid := pid
		sw.Port(pid).SetPeer(func(pkt *netproto.Packet, at netsim.Time) {
			got[pid] = pkt
			arriveAt = append(arriveAt, at)
		})
	}
	sendAt = sim.Now()
	sw.Port(0).Receive(frame(t, 64))
	sim.Run()

	if len(got) != 3 {
		t.Fatalf("replicated to %d ports, want 3", len(got))
	}
	rids := map[int]int{1: 10, 2: 20, 3: 30}
	uids := map[uint64]bool{}
	for pid, pkt := range got {
		if ridsSeen[pid] != rids[pid] {
			t.Errorf("port %d rid = %d in egress pipeline, want %d", pid, ridsSeen[pid], rids[pid])
		}
		if pkt.Meta.ReplicaID != 0 || pkt.Meta.Replica {
			t.Errorf("port %d: replication metadata leaked onto the wire", pid)
		}
		if uids[pkt.Meta.UID] {
			t.Error("replicas share a UID")
		}
		uids[pkt.Meta.UID] = true
	}
	// Replication adds the mcast-engine delay (~389 ns for 64 B).
	minDelay := arriveAt[0].Sub(sendAt).Nanoseconds()
	unicastNs := float64(IngressLatencyNs+TMLatencyNs+EgressLatencyNs+MACTxLatencyNs) + netproto.WireTimeNs(64, 100)
	extra := minDelay - unicastNs
	if extra < McastDelayNs(64)-McastJitterSpreadNs-1 || extra > McastDelayNs(64)+McastJitterSpreadNs+1 {
		t.Fatalf("mcast extra delay = %.1fns, want ~%.1f", extra, McastDelayNs(64))
	}
}

func TestMulticastUnknownGroupDrops(t *testing.T) {
	sim, sw := newTestSwitch(t, 1)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.McastGroup = 99 }))
	sw.Port(0).Receive(frame(t, 64))
	sim.Run()
	if sw.NoRouteDrops != 1 {
		t.Fatalf("NoRouteDrops = %d", sw.NoRouteDrops)
	}
}

func TestMcastGroupValidation(t *testing.T) {
	m := NewMcastEngine()
	if err := m.SetGroup(0, []CopySpec{{Port: 1}}); err == nil {
		t.Fatal("gid 0 accepted")
	}
	if err := m.SetGroup(1, nil); err == nil {
		t.Fatal("empty copy list accepted")
	}
	if err := m.SetGroup(1, []CopySpec{{Port: 1}}); err != nil {
		t.Fatal(err)
	}
	if len(m.Copies(1)) != 1 || m.Copies(2) != nil {
		t.Fatal("group lookup")
	}
}

func TestPortSerializationSpacing(t *testing.T) {
	// Two back-to-back frames on a 100G port must be spaced by the wire
	// time of the first frame.
	sim, sw := newTestSwitch(t, 2)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.EgressPort = 1 }))
	var times []netsim.Time
	sw.Port(1).SetPeer(func(pkt *netproto.Packet, at netsim.Time) { times = append(times, at) })

	sw.Port(0).Receive(frame(t, 1500))
	sw.Port(0).Receive(frame(t, 1500))
	sim.Run()

	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1].Sub(times[0]).Nanoseconds()
	want := netproto.WireTimeNs(1500, 100)
	if math.Abs(gap-want) > 0.5 {
		t.Fatalf("gap = %.2fns, want %.2f", gap, want)
	}
}

func TestPortBacklogDrop(t *testing.T) {
	sim, sw := newTestSwitch(t, 2)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.EgressPort = 1 }))
	sw.Port(1).MaxBacklog = 1 * netsim.Microsecond
	// 1500B @100G is ~121ns each; 100 frames = 12.1us backlog >> 1us cap.
	for i := 0; i < 100; i++ {
		sw.Port(0).Receive(frame(t, 1500))
	}
	sim.Run()
	if sw.Port(1).TxDrops == 0 {
		t.Fatal("no tail drops despite backlog cap")
	}
	if sw.Port(1).TxPackets+sw.Port(1).TxDrops != 100 {
		t.Fatalf("tx+drops = %d, want 100", sw.Port(1).TxPackets+sw.Port(1).TxDrops)
	}
}

func TestLoopbackPortRecirculates(t *testing.T) {
	sim, sw := newTestSwitch(t, 2)
	seen := 0
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
		seen++
		if seen < 5 {
			p.EgressPort = RecircPortBase
		} else {
			p.Drop = true
		}
	}))
	sw.Port(0).Receive(frame(t, 64))
	sim.Run()
	if seen != 5 {
		t.Fatalf("ingress saw packet %d times, want 5", seen)
	}
}

// TestLoopbackAndRemoteExclude: a port is cabled across a partition or looped
// back, never both — a partitioned port's channel promises frames a constant
// egress + MAC latency ahead of the MAC, which a loopback port's jittered
// delay cannot keep.
func TestLoopbackAndRemoteExclude(t *testing.T) {
	_, sw := newTestSwitch(t, 2)
	remote := func(*netproto.Packet, netsim.Time) {}
	sw.Port(0).SetRemote(remote)
	defer func() {
		if recover() == nil {
			t.Error("SetRemote on a loopback port did not panic")
		}
	}()
	sw.Port(RecircPortBase).SetRemote(remote)
}

func TestInjectFromCPU(t *testing.T) {
	sim, sw := newTestSwitch(t, 1)
	var inPort int
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { inPort = p.Meta.InPort; p.Drop = true }))
	sw.InjectFromCPU(frame(t, 64))
	sim.Run()
	if inPort != CPUPortID {
		t.Fatalf("in port = %d, want CPU port", inPort)
	}
}

func TestDigestChannelRateBound(t *testing.T) {
	sim, sw := newTestSwitch(t, 1)
	var delivered []netsim.Time
	sw.DigestOut = func(data []byte, at netsim.Time) { delivered = append(delivered, at) }
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
		p.DigestData = []byte("0123456789abcdef")
		p.Drop = true
	}))
	for i := 0; i < 10; i++ {
		sw.Port(0).Receive(frame(t, 64))
	}
	sim.Run()
	if len(delivered) != 10 {
		t.Fatalf("delivered %d digests", len(delivered))
	}
	// Deliveries must be spaced by the digest service time (channel is
	// message-rate bound).
	for i := 1; i < len(delivered); i++ {
		gap := delivered[i].Sub(delivered[i-1])
		if gap < 450*netsim.Microsecond {
			t.Fatalf("digest gap %v too small", gap)
		}
	}
	if sw.DigestsSent != 10 {
		t.Fatalf("DigestsSent = %d", sw.DigestsSent)
	}
}

func TestEgressPipelineRunsAndEdits(t *testing.T) {
	sim, sw := newTestSwitch(t, 2)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.EgressPort = 1 }))
	sw.Egress.Add(ProcessorFunc(func(p *PHV) { FieldUDPDstPort.Set(p, 9999) }))
	var got *netproto.Packet
	sw.Port(1).SetPeer(func(pkt *netproto.Packet, at netsim.Time) { got = pkt })
	sw.Port(0).Receive(frame(t, 64))
	sim.Run()
	var s netproto.Stack
	if err := s.Decode(got.Data); err != nil {
		t.Fatal(err)
	}
	if s.UDP.DstPort != 9999 {
		t.Fatalf("egress edit lost: dport = %d", s.UDP.DstPort)
	}
}
