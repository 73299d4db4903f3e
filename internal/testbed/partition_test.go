package testbed

import (
	"reflect"
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// The partition differential tests build the same topology twice — once on
// the sequential reference engine (workers=1) and once on the parallel
// engine — run the identical traffic script, and require every observable
// (counters, first/last arrival, per-packet timestamps, device state) to be
// bit-identical. They are the testbed-level counterpart of the netsim engine
// differential tests, exercising the calibrated lookahead derivation and the
// deferred switch-port ingress path over real devices.

var partitionWorkers = []int{2, 4, 8}

// buildTCPFrame builds a parseable TCP frame for scripted test traffic.
func buildTCPFrame(t *testing.T, srcPort, dstPort uint16, flags uint8, seq uint32, payload []byte, frameLen int) []byte {
	t.Helper()
	raw, err := netproto.BuildTCP(netproto.TCPSpec{
		SrcMAC: netproto.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netproto.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: netproto.IPv4Addr(0x0a000001), DstIP: netproto.IPv4Addr(0x0a000002),
		SrcPort: srcPort, DstPort: dstPort,
		Seq: seq, Flags: flags, TTL: 64,
		Payload: payload, FrameLen: frameLen,
	})
	if err != nil {
		t.Fatalf("BuildTCP: %v", err)
	}
	return raw
}

// walked is what devices' Describe walks recorded, in order.
type walked []obs.Metric

func walk(describe func(r *obs.Registry)) walked {
	r := obs.NewRegistry()
	describe(r)
	return r.All()
}

// num returns a walked metric's value (0 when absent).
func (w walked) num(name string) float64 {
	for _, m := range w {
		if m.Name == name {
			return m.Num
		}
	}
	return 0
}

// chainSnapshot captures every observable of the src -> DUT -> sink chain:
// the forwarding switch's two ports and the sink as their walks record them,
// plus the interfaces' counters and the sink's arrivals. (The switch's own
// walk is not compared: its job pool's size depends on the engine.)
type chainSnapshot struct {
	Walk                       walked
	SrcTxPackets, SrcTxBytes   uint64
	SinkRxPackets, SinkRxBytes uint64
	First, Last                netsim.Time
	Timestamps                 []float64
}

// runChain drives a three-LP chain: a software source interface cabled into
// port 0 of a forwarding switch whose port 1 feeds a timestamp-recording
// sink. It exercises both cross-LP directions a switch port participates in
// (iface->port deferred ingress, port->iface delivery).
func runChain(t *testing.T, workers int) chainSnapshot {
	t.Helper()
	p := NewPartition(workers)
	src := NewIface(p.LP("src"), "src", 40)
	dut := NewForwardingDUT(p.LP("dut"), "dut", []float64{40, 40}, map[int]int{0: 1}, 7)
	sink := NewSink(p.LP("sink"), "sink", 40)
	sink.RecordTimestamps = true
	p.Connect(src, dut.Port(0), DefaultCableDelay)
	p.Connect(dut.Port(1), sink.Iface, DefaultCableDelay)

	// Scripted traffic: bursts of back-to-back frames with varied lengths
	// and spacing, so serialization queueing and due-time ties are common.
	rng := netsim.NewRNG(42, "partition-chain")
	at := netsim.Time(0).Add(10 * netsim.Microsecond)
	srcSim := src.Sim()
	for i := 0; i < 400; i++ {
		frameLen := 64 + int(rng.Uint64()%9)*64
		raw := buildTCPFrame(t, uint16(40000+i%16), 80, netproto.TCPSyn, uint32(i), nil, frameLen)
		srcSim.At(at, func() { src.Send(&netproto.Packet{Data: raw}) })
		if i%8 != 7 {
			at = at.Add(netsim.Duration(rng.Int63n(int64(200 * netsim.Nanosecond))))
		} else {
			at = at.Add(netsim.Duration(rng.Int63n(int64(3 * netsim.Microsecond))))
		}
	}
	// Idle tail so deferred port-ingress RX credits (see
	// asic.Port.DeliverDeferred) land before the deadline in both modes.
	p.RunUntil(at.Add(time1ms))

	return chainSnapshot{
		Walk: walk(func(r *obs.Registry) {
			dut.Port(0).Describe(r, "dut.port0")
			dut.Port(1).Describe(r, "dut.port1")
			sink.Describe(r, "sink")
		}),
		SrcTxPackets: src.TxPackets, SrcTxBytes: src.TxBytes,
		SinkRxPackets: sink.Iface.RxPackets, SinkRxBytes: sink.Iface.RxBytes,
		First: sink.First, Last: sink.Last,
		Timestamps: sink.Timestamps,
	}
}

const time1ms = netsim.Millisecond

func TestPartitionChainMatchesSequential(t *testing.T) {
	want := runChain(t, 1)
	sent := float64(want.SrcTxPackets)
	if sent == 0 || len(want.Timestamps) == 0 {
		t.Fatalf("sequential chain saw no traffic: %+v", want)
	}
	if want.Walk.num("sink.rx_packets") != sent || want.Walk.num("dut.port0.rx_packets") != sent {
		t.Fatalf("sequential chain lost frames: %+v", want)
	}
	for _, w := range partitionWorkers {
		got := runChain(t, w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from sequential:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

// pingPongSnapshot captures the observables of a reflector loop: the
// reflectors' walks and their interfaces' counters.
type pingPongSnapshot struct {
	Walk                   walked
	ATx, ARx, BTx, BRx     uint64
	ATxB, ARxB, BTxB, BRxB uint64
}

func reflectorsWalk(ra, rb *Reflector) walked {
	return walk(func(r *obs.Registry) {
		ra.Describe(r, "a")
		rb.Describe(r, "b")
	})
}

// runPingPong bounces seed frames between two reflectors on separate LPs —
// a feedback topology where every event on one LP causes the next event on
// the other, the worst case for conservative synchronization. The jittery
// side draws from its RNG per bounce, so any reordering of receives changes
// every subsequent timestamp and the final bounce counts.
func runPingPong(t *testing.T, workers int) pingPongSnapshot {
	t.Helper()
	p := NewPartition(workers)
	ra := NewReflector(p.LP("a"), "ra", 10)
	rb := NewReflector(p.LP("b"), "rb", 25)
	rb.ExtraDelay = 300 * netsim.Nanosecond
	rb.ExtraJitter = 2 * netsim.Microsecond
	p.Connect(ra.Iface, rb.Iface, 100*netsim.Nanosecond)

	aSim := ra.Iface.Sim()
	for i := 0; i < 3; i++ {
		raw := buildTCPFrame(t, uint16(50000+i), 443, netproto.TCPAck, 1, nil, 64+i*128)
		aSim.At(netsim.Time(0).Add(netsim.Duration(1+i)*netsim.Microsecond),
			func() { ra.Iface.Send(&netproto.Packet{Data: raw}) })
	}
	p.RunUntil(netsim.Time(0).Add(3 * netsim.Millisecond))

	return pingPongSnapshot{
		Walk: reflectorsWalk(ra, rb),
		ATx:  ra.Iface.TxPackets, ARx: ra.Iface.RxPackets,
		BTx: rb.Iface.TxPackets, BRx: rb.Iface.RxPackets,
		ATxB: ra.Iface.TxBytes, ARxB: ra.Iface.RxBytes,
		BTxB: rb.Iface.TxBytes, BRxB: rb.Iface.RxBytes,
	}
}

func TestPartitionPingPongMatchesSequential(t *testing.T) {
	want := runPingPong(t, 1)
	if want.Walk.num("a.reflected") < 100 {
		t.Fatalf("sequential ping-pong barely bounced: %+v", want)
	}
	for _, w := range partitionWorkers {
		got := runPingPong(t, w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from sequential:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

// farmSnapshot captures client- and server-side observables of scripted
// HTTP exchanges: the farm's walk, its unexpected-packet count and what the
// client received.
type farmSnapshot struct {
	Walk                    walked
	Unexpected              uint64
	ClientRx, ClientRxBytes uint64
	ClientTimes             []int64
}

// runFarm scripts a batch of overlapping HTTP exchanges (SYN, request, FIN
// per flow) from a client interface against a stateful server farm on its
// own LP. The farm's per-connection state and reply scheduling make its
// observables sensitive to receive order.
func runFarm(t *testing.T, workers int) farmSnapshot {
	t.Helper()
	p := NewPartition(workers)
	client := NewIface(p.LP("client"), "client", 10)
	farm := NewHTTPServerFarm(p.LP("farm"), "farm", 10)
	p.Connect(client, farm.Iface, DefaultCableDelay)

	var snap farmSnapshot
	client.OnReceive(func(pkt *netproto.Packet) {
		snap.ClientRx++
		snap.ClientRxBytes += uint64(pkt.Len())
		snap.ClientTimes = append(snap.ClientTimes, pkt.Meta.IngressPs)
		pkt.Release()
	})

	clientSim := client.Sim()
	base := netsim.Time(0).Add(5 * netsim.Microsecond)
	for i := 0; i < 12; i++ {
		port := uint16(40000 + i)
		start := base.Add(netsim.Duration(i) * 7 * netsim.Microsecond)
		syn := buildTCPFrame(t, port, 80, netproto.TCPSyn, 100, nil, 64)
		req := buildTCPFrame(t, port, 80, netproto.TCPPsh|netproto.TCPAck, 101,
			[]byte("GET / HTTP/1.1"), 0)
		fin := buildTCPFrame(t, port, 80, netproto.TCPFin|netproto.TCPAck, 115, nil, 64)
		clientSim.At(start, func() { client.Send(&netproto.Packet{Data: syn}) })
		clientSim.At(start.Add(30*netsim.Microsecond),
			func() { client.Send(&netproto.Packet{Data: req}) })
		clientSim.At(start.Add(400*netsim.Microsecond),
			func() { client.Send(&netproto.Packet{Data: fin}) })
	}
	p.RunUntil(base.Add(2 * netsim.Millisecond))

	snap.Walk = walk(func(r *obs.Registry) { farm.Describe(r, "farm") })
	snap.Unexpected = farm.UnexpectedPkts
	return snap
}

func TestPartitionHTTPFarmMatchesSequential(t *testing.T) {
	want := runFarm(t, 1)
	if want.Walk.num("farm.requests") != 12 || want.Walk.num("farm.closed") != 12 {
		t.Fatalf("sequential farm script incomplete: %+v", want)
	}
	for _, w := range partitionWorkers {
		got := runFarm(t, w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from sequential:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

// TestPartitionSequentialSharesOneSim pins the degenerate mapping: with one
// worker every LP is the same Sim and Connect falls back to the legacy
// single-clock cable.
func TestPartitionSequentialSharesOneSim(t *testing.T) {
	p := NewPartition(1)
	if p.Engine() != nil {
		t.Fatal("NewPartition(1) built an engine, want the shared Sim")
	}
	if p.LP("a") != p.LP("b") {
		t.Fatal("sequential partition returned distinct Sims per LP")
	}
	pp := NewPartition(4)
	if pp.Engine() == nil {
		t.Fatal("NewPartition(4) built no engine")
	}
	if pp.LP("a") == pp.LP("b") {
		t.Fatal("parallel partition shared one Sim across LPs")
	}
}

// TestPartitionRunForComposes checks that chunked RunFor calls on a
// partitioned topology agree with one shot — experiments that sample
// mid-window (Fig. 13's field collection) advance the clock in steps.
func TestPartitionRunForComposes(t *testing.T) {
	run := func(steps int) pingPongSnapshot {
		p := NewPartition(4)
		ra := NewReflector(p.LP("a"), "ra", 10)
		rb := NewReflector(p.LP("b"), "rb", 10)
		rb.ExtraJitter = time1ms / 500
		p.Connect(ra.Iface, rb.Iface, 50*netsim.Nanosecond)
		raw := buildTCPFrame(t, 50000, 443, netproto.TCPAck, 1, nil, 64)
		ra.Iface.Sim().At(netsim.Time(0).Add(netsim.Microsecond),
			func() { ra.Iface.Send(&netproto.Packet{Data: raw}) })
		total := 2 * netsim.Millisecond
		for i := 0; i < steps; i++ {
			p.RunFor(total / netsim.Duration(steps))
		}
		return pingPongSnapshot{
			Walk: reflectorsWalk(ra, rb),
			ATx:  ra.Iface.TxPackets, ARx: ra.Iface.RxPackets,
			BTx: rb.Iface.TxPackets, BRx: rb.Iface.RxPackets,
		}
	}
	want := run(1)
	if want.Walk.num("a.reflected") == 0 {
		t.Fatal("ping-pong never bounced")
	}
	for _, steps := range []int{2, 5} {
		if got := run(steps); !reflect.DeepEqual(got, want) {
			t.Errorf("steps=%d: got %+v, want %+v", steps, got, want)
		}
	}
}

// TestPartitionBoundaryRxCredit pins port RX-counter bit-identity at RunUntil
// boundaries that land between a frame's wire arrival and its deferred
// pipeline entry on a partitioned link (the engine's boundary flush of the
// PostRemotePre credit), and that deliveries spanning a boundary survive into
// the next run — the cross-run composition the experiment driver's
// warmup+window pattern exercises.
func TestPartitionBoundaryRxCredit(t *testing.T) {
	type edgeSnap struct {
		EdgeRx, EdgeRxBytes uint64 // port 0 RX sampled at the boundary
		FinalRx, SinkPkts   uint64 // totals after the drained second run
	}
	sample := func(workers int, deadline netsim.Time) edgeSnap {
		p := NewPartition(workers)
		src := NewIface(p.LP("src"), "src", 40)
		dut := NewForwardingDUT(p.LP("dut"), "dut", []float64{40, 40}, map[int]int{0: 1}, 7)
		sink := NewSink(p.LP("sink"), "sink", 40)
		p.Connect(src, dut.Port(0), DefaultCableDelay)
		p.Connect(dut.Port(1), sink.Iface, DefaultCableDelay)
		raw := buildTCPFrame(t, 40000, 80, netproto.TCPSyn, 1, nil, 64)
		src.Sim().At(netsim.Time(0).Add(10*netsim.Microsecond),
			func() { src.Send(&netproto.Packet{Data: raw}) })
		p.RunUntil(deadline)
		s := edgeSnap{EdgeRx: dut.Port(0).RxPackets, EdgeRxBytes: dut.Port(0).RxBytes}
		p.RunUntil(deadline.Add(netsim.Millisecond))
		s.FinalRx, s.SinkPkts = dut.Port(0).RxPackets, sink.Packets
		return s
	}
	// Sweep boundaries across the frame's arrival + MAC/ingress-latency
	// window (sent at 10us, ~17ns serialization + 5ns cable, then the fixed
	// ingress latency): several edges fall strictly inside the deferred
	// window, where the sequential engine has already credited RX.
	sawCredit := false
	for off := netsim.Duration(0); off <= 800*netsim.Nanosecond; off += 25 * netsim.Nanosecond {
		deadline := netsim.Time(0).Add(10 * netsim.Microsecond).Add(off)
		want := sample(1, deadline)
		sawCredit = sawCredit || want.EdgeRx > 0
		if want.SinkPkts != 1 {
			t.Fatalf("off=%v: sequential run lost the frame: %+v", off, want)
		}
		for _, w := range partitionWorkers {
			if got := sample(w, deadline); got != want {
				t.Errorf("off=%v workers=%d: got %+v, want %+v", off, w, got, want)
			}
		}
	}
	if !sawCredit {
		t.Fatal("sweep never crossed the frame's arrival; widen the offsets")
	}
}

// TestPartitionMixedLocalRemote pins that a partition can mix same-LP legacy
// cables with cross-LP channels: two sinks, one co-located with the source's
// LP, one remote, both fed by a forwarding switch.
func TestPartitionMixedLocalRemote(t *testing.T) {
	run := func(workers int) [2]uint64 {
		p := NewPartition(workers)
		genSim := p.LP("gen")
		src := NewIface(genSim, "src", 40)
		dut := NewForwardingDUT(genSim, "dut", []float64{40, 40, 40}, map[int]int{0: 1, 2: 1}, 7)
		// Remote sink hangs off the DUT via a cross-LP (or, sequentially,
		// same-Sim) cable; the local loop stays on the generator LP.
		sink := NewSink(p.LP("sink"), "sink", 40)
		p.Connect(src, dut.Port(0), DefaultCableDelay)
		p.Connect(dut.Port(1), sink.Iface, DefaultCableDelay)
		for i := 0; i < 50; i++ {
			raw := buildTCPFrame(t, uint16(41000+i), 80, netproto.TCPSyn, uint32(i), nil, 128)
			genSim.At(netsim.Time(0).Add(netsim.Duration(i)*netsim.Microsecond),
				func() { src.Send(&netproto.Packet{Data: raw}) })
		}
		p.RunUntil(netsim.Time(0).Add(time1ms))
		return [2]uint64{sink.Packets, sink.Bytes}
	}
	want := run(1)
	if want[0] != 50 {
		t.Fatalf("sequential mixed topology delivered %d packets, want 50", want[0])
	}
	for _, w := range partitionWorkers {
		if got := run(w); got != want {
			t.Errorf("workers=%d: got %v, want %v", w, got, want)
		}
	}
}

// TestPartitionUnknownAttachPanics pins the endpoint() contract.
func TestPartitionUnknownAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Connect with unknown attachment type did not panic")
		}
	}()
	p := NewPartition(2)
	s := NewSink(p.LP("s"), "s", 10)
	p.Connect(badAttach{}, s.Iface, 0)
}

type badAttach struct{}

func (badAttach) SetPeer(func(*netproto.Packet, netsim.Time)) {}
func (badAttach) Deliver(*netproto.Packet)                    {}

// TestPartitionLookahead pins the calibrated lookahead of every kind of
// channel half (DESIGN.md §10.2): a minimum frame's wire time at the source
// rate plus the cable, plus the egress + MAC latency when the source is a
// switch port (which hands a frame over at egress end), plus the MAC +
// ingress latency when the destination is one (whose message targets
// pipeline entry).
func TestPartitionLookahead(t *testing.T) {
	sim := netsim.New()
	sw := NewForwardingDUT(sim, "dut", []float64{100, 40}, nil, 1)
	nic := NewIface(sim, "nic", 10)
	ns := func(v float64) netsim.Duration { return netsim.Ns(v) }
	for _, c := range []struct {
		name        string
		src, dst    Attach
		propagation netsim.Duration
		want        netsim.Duration
	}{
		// The line-rate tester -> sink channel: 6.4 ns before the MAC hop
		// was folded into egress.
		{"100G port -> iface, no cable delay", sw.Port(0), nic, 0, ns(274 + 6.4)},
		{"40G port -> iface", sw.Port(1), nic, DefaultCableDelay, ns(274 + 16 + 5)},
		{"10G iface -> port", nic, sw.Port(0), DefaultCableDelay, ns(64 + 5 + 170)},
		{"100G port -> port", sw.Port(0), sw.Port(1), 20 * netsim.Nanosecond, ns(274 + 6.4 + 20 + 170)},
		{"iface -> iface", nic, NewIface(sim, "peer", 25), DefaultCableDelay, ns(64 + 5)},
	} {
		if got := lookahead(c.src, c.dst, c.propagation); got != c.want {
			t.Errorf("%s: lookahead %v, want %v", c.name, got, c.want)
		}
	}
}
