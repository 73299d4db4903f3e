package testbed

import (
	"math"
	"slices"
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/raceflag"
)

func udpFrame(t *testing.T, size int, sport, dport uint16) *netproto.Packet {
	t.Helper()
	raw, err := netproto.BuildUDP(netproto.UDPSpec{
		SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
		SrcPort: sport, DstPort: dport, FrameLen: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &netproto.Packet{Data: raw}
}

func TestIfaceSendSerializes(t *testing.T) {
	sim := netsim.New()
	a := NewIface(sim, "a", 10)
	var arrivals []netsim.Time
	a.SetPeer(func(pkt *netproto.Packet, at netsim.Time) { arrivals = append(arrivals, at) })
	a.Send(udpFrame(t, 1500, 1, 2))
	a.Send(udpFrame(t, 1500, 1, 2))
	sim.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	gap := arrivals[1].Sub(arrivals[0]).Nanoseconds()
	want := netproto.WireTimeNs(1500, 10)
	if math.Abs(gap-want) > 0.01 {
		t.Fatalf("gap %.2f, want %.2f", gap, want)
	}
	if a.TxPackets != 2 {
		t.Fatalf("TxPackets = %d", a.TxPackets)
	}
}

func TestConnectBidirectional(t *testing.T) {
	sim := netsim.New()
	a := NewIface(sim, "a", 100)
	b := NewIface(sim, "b", 100)
	var aGot, bGot int
	a.OnReceive(func(pkt *netproto.Packet) { aGot++ })
	b.OnReceive(func(pkt *netproto.Packet) { bGot++ })
	Connect(sim, a, b, DefaultCableDelay)
	a.Send(udpFrame(t, 64, 1, 2))
	b.Send(udpFrame(t, 64, 3, 4))
	sim.Run()
	if aGot != 1 || bGot != 1 {
		t.Fatalf("aGot=%d bGot=%d", aGot, bGot)
	}
}

func TestConnectPropagationDelay(t *testing.T) {
	sim := netsim.New()
	a := NewIface(sim, "a", 100)
	b := NewIface(sim, "b", 100)
	var at netsim.Time
	b.OnReceive(func(pkt *netproto.Packet) { at = sim.Now() })
	Connect(sim, a, b, 100*netsim.Nanosecond)
	a.Send(udpFrame(t, 64, 1, 2))
	sim.Run()
	want := netsim.Ns(netproto.WireTimeNs(64, 100)) + 100*netsim.Nanosecond
	if at != netsim.Time(want) {
		t.Fatalf("arrival %v, want %v", at, want)
	}
}

func TestSinkMetrics(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	sink := NewSink(sim, "sink", 100)
	sink.RecordTimestamps = true
	Connect(sim, src, sink.Iface, 0)
	for i := 0; i < 100; i++ {
		src.Send(udpFrame(t, 64, 1, 2))
	}
	sim.Run()
	if sink.Packets != 100 || sink.Bytes != 6400 {
		t.Fatalf("packets=%d bytes=%d", sink.Packets, sink.Bytes)
	}
	if len(sink.Timestamps) != 100 {
		t.Fatalf("timestamps = %d", len(sink.Timestamps))
	}
	// Back-to-back 64B at 100G: sink should observe ~line rate.
	if g := sink.ThroughputGbps(); g < 99 || g > 101 {
		t.Fatalf("throughput = %.2f Gbps", g)
	}
	wantPps := 1e9 / netproto.WireTimeNs(64, 100)
	if pps := sink.RatePps(); math.Abs(pps-wantPps) > wantPps/100 {
		t.Fatalf("pps = %.0f, want ~%.0f", pps, wantPps)
	}
	sink.Reset()
	if sink.Packets != 0 || len(sink.Timestamps) != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestSinkMaxRecorded(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	sink := NewSink(sim, "sink", 100)
	sink.RecordTimestamps = true
	sink.MaxRecorded = 10
	Connect(sim, src, sink.Iface, 0)
	for i := 0; i < 50; i++ {
		src.Send(udpFrame(t, 64, 1, 2))
	}
	sim.Run()
	if len(sink.Timestamps) != 10 {
		t.Fatalf("recorded %d, want 10", len(sink.Timestamps))
	}
	if sink.Packets != 50 {
		t.Fatalf("counting must continue past the cap: %d", sink.Packets)
	}
}

func TestReflectorSwapsEndpoints(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	refl := NewReflector(sim, "refl", 100)
	var got *netproto.Packet
	src.OnReceive(func(pkt *netproto.Packet) { got = pkt })
	Connect(sim, src, refl.Iface, 0)
	src.Send(udpFrame(t, 64, 1111, 2222))
	sim.Run()
	if got == nil {
		t.Fatal("nothing reflected")
	}
	var s netproto.Stack
	if err := s.Decode(got.Data); err != nil {
		t.Fatal(err)
	}
	if s.IP4.Src != netproto.MustIPv4("10.0.0.2") || s.IP4.Dst != netproto.MustIPv4("10.0.0.1") {
		t.Fatalf("IPs not swapped: %v -> %v", s.IP4.Src, s.IP4.Dst)
	}
	if s.UDP.SrcPort != 2222 || s.UDP.DstPort != 1111 {
		t.Fatalf("ports not swapped: %d -> %d", s.UDP.SrcPort, s.UDP.DstPort)
	}
	if refl.Reflected != 1 {
		t.Fatalf("Reflected = %d", refl.Reflected)
	}
}

// TestReflectorJitterFollowsTheSeed: the bounce jitter is a seeded stream like
// every other in the testbed — one seed repeats, two seeds differ — and a
// reflector nobody seeded still draws what NewReflector always drew (seed 1).
func TestReflectorJitterFollowsTheSeed(t *testing.T) {
	bounces := func(seed func(*Reflector)) []netsim.Time {
		sim := netsim.New()
		src := NewIface(sim, "src", 100)
		refl := NewReflector(sim, "refl", 100)
		refl.ExtraJitter = 4 * netsim.Microsecond
		seed(refl)
		var at []netsim.Time
		src.OnReceive(func(pkt *netproto.Packet) { at = append(at, sim.Now()) })
		Connect(sim, src, refl.Iface, 0)
		for i := 0; i < 16; i++ {
			src.Send(udpFrame(t, 64, 1111, 2222))
			sim.RunFor(10 * netsim.Microsecond)
		}
		if len(at) != 16 {
			t.Fatalf("%d of 16 frames came back", len(at))
		}
		return at
	}
	unseeded := bounces(func(*Reflector) {})
	one := bounces(func(r *Reflector) { r.Seed(1) })
	two := bounces(func(r *Reflector) { r.Seed(2) })
	if !slices.Equal(one, bounces(func(r *Reflector) { r.Seed(1) })) {
		t.Error("seed 1 did not repeat its bounce times")
	}
	if slices.Equal(one, two) {
		t.Error("seeds 1 and 2 gave the same bounce times: the jitter ignores the seed")
	}
	if !slices.Equal(unseeded, one) {
		t.Error("an unseeded reflector no longer draws the seed-1 stream existing callers see")
	}
}

func TestHTTPServerHandshakeAndServe(t *testing.T) {
	sim := netsim.New()
	client := NewIface(sim, "client", 100)
	farm := NewHTTPServerFarm(sim, "farm", 100)
	farm.ResponsePackets = 5

	type seen struct {
		flags   uint8
		payload int
		seq     uint32
		ack     uint32
	}
	var replies []seen
	var stack netproto.Stack
	client.OnReceive(func(pkt *netproto.Packet) {
		if err := stack.Decode(pkt.Data); err == nil && stack.Has(netproto.LayerTCP) {
			replies = append(replies, seen{stack.TCP.Flags, len(stack.Payload), stack.TCP.Seq, stack.TCP.Ack})
		}
	})
	Connect(sim, client, farm.Iface, 0)

	send := func(flags uint8, seq, ack uint32, payload []byte) {
		raw, err := netproto.BuildTCP(netproto.TCPSpec{
			SrcIP: netproto.MustIPv4("1.1.0.1"), DstIP: netproto.MustIPv4("9.9.9.9"),
			SrcPort: 4096, DstPort: 80, Seq: seq, Ack: ack, Flags: flags,
			Payload: payload, FrameLen: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		client.Send(&netproto.Packet{Data: raw})
	}

	send(netproto.TCPSyn, 1, 0, nil)
	sim.Run()
	if len(replies) != 1 || replies[0].flags != netproto.TCPSyn|netproto.TCPAck {
		t.Fatalf("after SYN: %+v", replies)
	}
	if replies[0].ack != 2 {
		t.Fatalf("SYN+ACK acks %d, want 2", replies[0].ack)
	}
	synAck := replies[0]

	// Complete handshake + request in one PSH+ACK (as HyperTester's T3 does).
	send(netproto.TCPAck, 2, synAck.seq+1, nil)
	send(netproto.TCPPsh|netproto.TCPAck, 2, synAck.seq+1, []byte("GET index.html"))
	sim.Run()

	data := 0
	for _, r := range replies[1:] {
		if r.payload > 0 {
			data++
		}
	}
	if data != 5 {
		t.Fatalf("served %d data packets, want 5", data)
	}
	if farm.Handshakes != 1 || farm.Requests != 1 {
		t.Fatalf("farm stats: %+v", farm)
	}

	// Close.
	send(netproto.TCPFin, 100, 0, nil)
	sim.Run()
	last := replies[len(replies)-1]
	if last.flags != netproto.TCPFin|netproto.TCPAck {
		t.Fatalf("after FIN got flags %#x", last.flags)
	}
	if farm.Closed != 1 || farm.OpenConnections() != 0 {
		t.Fatalf("close stats: closed=%d open=%d", farm.Closed, farm.OpenConnections())
	}
}

func TestHTTPServerIgnoresUnknownRequest(t *testing.T) {
	sim := netsim.New()
	client := NewIface(sim, "client", 100)
	farm := NewHTTPServerFarm(sim, "farm", 100)
	Connect(sim, client, farm.Iface, 0)
	// Request without a preceding SYN: no connection state.
	raw, _ := netproto.BuildTCP(netproto.TCPSpec{
		SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80,
		Flags: netproto.TCPPsh | netproto.TCPAck, Payload: []byte("GET x"),
	})
	client.Send(&netproto.Packet{Data: raw})
	sim.Run()
	if farm.UnexpectedPkts != 1 || farm.Requests != 0 {
		t.Fatalf("unexpected=%d requests=%d", farm.UnexpectedPkts, farm.Requests)
	}
}

func TestScanTargetResponses(t *testing.T) {
	sim := netsim.New()
	scanner := NewIface(sim, "scanner", 100)
	target := NewScanTarget(sim, "net", 100)
	target.LivePermille = 500 // half the space answers

	var synAck, rst int
	var stack netproto.Stack
	scanner.OnReceive(func(pkt *netproto.Packet) {
		if err := stack.Decode(pkt.Data); err != nil {
			return
		}
		switch stack.TCP.Flags {
		case netproto.TCPSyn | netproto.TCPAck:
			synAck++
		case netproto.TCPRst:
			rst++
		}
	})
	Connect(sim, scanner, target.Iface, 0)

	liveOpen, liveClosed, dead := 0, 0, 0
	for i := 0; i < 1000; i++ {
		ip := netproto.IPv4Addr(0x0b000000 + uint32(i))
		open := i%2 == 0
		port := uint16(80)
		if !open {
			port = 9999
		}
		if target.Live(ip) {
			if open {
				liveOpen++
			} else {
				liveClosed++
			}
		} else if open {
			dead++
		}
		raw, _ := netproto.BuildTCP(netproto.TCPSpec{
			SrcIP: netproto.MustIPv4("1.1.0.1"), DstIP: ip,
			SrcPort: 1024, DstPort: port, Flags: netproto.TCPSyn, FrameLen: 64,
		})
		scanner.Send(&netproto.Packet{Data: raw})
	}
	sim.Run()

	if target.ProbesSeen != 1000 {
		t.Fatalf("probes = %d", target.ProbesSeen)
	}
	if synAck != liveOpen {
		t.Fatalf("syn+ack = %d, want %d", synAck, liveOpen)
	}
	if rst != liveClosed {
		t.Fatalf("rst = %d, want %d", rst, liveClosed)
	}
	if liveOpen == 0 || dead == 0 {
		t.Fatal("degenerate liveness split; adjust hash")
	}
	// Liveness must be deterministic.
	if target.Live(0x0b000001) != target.Live(0x0b000001) {
		t.Fatal("liveness not stable")
	}
}

func TestForwardingDUT(t *testing.T) {
	sim := netsim.New()
	dut := NewForwardingDUT(sim, "dut", []float64{100, 100}, map[int]int{0: 1, 1: 0}, 7)
	src := NewIface(sim, "src", 100)
	sink := NewSink(sim, "sink", 100)
	Connect(sim, src, dut.Port(0), 0)
	Connect(sim, dut.Port(1), sink.Iface, 0)
	var sent netsim.Time
	sink.OnPacket = func(pkt *netproto.Packet, at netsim.Time) {}
	sent = sim.Now()
	src.Send(udpFrame(t, 64, 1, 2))
	sim.Run()
	if sink.Packets != 1 {
		t.Fatalf("packets = %d", sink.Packets)
	}
	// Forwarding delay through the DUT is the full pipe traversal.
	delay := sink.Last.Sub(sent).Nanoseconds()
	if delay < 500 || delay > 800 {
		t.Fatalf("DUT forwarding delay %.0fns out of plausible Tofino range", delay)
	}
	// Unmapped ingress port drops.
	dut2 := NewForwardingDUT(sim, "dut2", []float64{100}, map[int]int{}, 7)
	dut2.Port(0).Receive(udpFrame(t, 64, 1, 2))
	sim.Run()
	if dut2.PipelineDrops != 1 {
		t.Fatalf("unmapped port not dropped: %d", dut2.PipelineDrops)
	}
}

// TestReflectorBouncesTheDeliveredFrame pins the reflector's pool
// discipline: the frame that comes back is the frame that was delivered —
// no clone, so nothing is left for the GC — and a frame bouncing between two
// reflectors costs no allocation per hop.
func TestReflectorBouncesTheDeliveredFrame(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	refl := NewReflector(sim, "refl", 100)
	refl.ExtraDelay = 50 * netsim.Nanosecond
	var got *netproto.Packet
	src.OnReceive(func(pkt *netproto.Packet) { got = pkt })
	Connect(sim, src, refl.Iface, DefaultCableDelay)
	sent := udpFrame(t, 64, 1111, 2222)
	src.Send(sent)
	sim.Run()
	if got != sent {
		t.Fatalf("reflector sent back %p, was handed %p", got, sent)
	}

	if raceflag.Enabled {
		return // race instrumentation allocates on its own
	}
	a, b := NewReflector(sim, "a", 100), NewReflector(sim, "b", 100)
	Connect(sim, a.Iface, b.Iface, DefaultCableDelay)
	a.Iface.Send(udpFrame(t, 64, 1, 2))
	sim.RunFor(10 * netsim.Microsecond)
	before := a.Reflected
	if allocs := testing.AllocsPerRun(5, func() { sim.RunFor(10 * netsim.Microsecond) }); allocs != 0 {
		t.Errorf("%.1f allocs per 10us of ping-pong, want 0", allocs)
	}
	if a.Reflected-before < 100 {
		t.Fatalf("only %d bounces measured", a.Reflected-before)
	}
}
