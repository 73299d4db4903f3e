package asic_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/raceflag"
	"github.com/hypertester/hypertester/internal/testbed"
)

// Multicast copies without a frame (DESIGN.md §9.9). A copy bound for a sink
// that only counts carries headers, not bytes: its egress pass runs on a copy
// of the replicated PHV, and its MAC hop and arrival are accounted. These
// tests hold that to the same rigs with a hook on every sink, where every copy
// carries a frame and every serialization end and arrival is an event.

// Port kinds of a multicast rig.
const (
	countingSink = iota // cabled to a sink that only counts
	hookedSink          // cabled to a sink with an OnPacket hook
	unplugged           // no peer: framed copies are discarded at TX end
	unhookedSink        // cabled to a sink whose no-op hook goes at a cut
)

// mcastFrame is one scripted frame: it arrives on port 0 at at and is
// replicated to group (carried in its IPv4 ID), or leaves unicast when group
// is 0.
type mcastFrame struct {
	at          netsim.Time
	group, size int
	proto       int // 0 UDP, 1 TCP, 2 ICMP, 3 UDP behind a VLAN tag
}

// mcastRig is a switch whose front-panel ports 1..n are of mixed rates,
// backlog bounds, cable delays and kinds, fed on port 0. Groups fan out to
// those ports, to the recirculation path (whose frames come back and leave
// unicast) and to a port that does not exist; group 0 frames leave unicast.
// An unhookedSink's hook goes at unhook, in the rig without a hook on every
// sink: copies replicated with a frame towards it before then reach egress
// end with its port accounting.
type mcastRig struct {
	gbps    []float64
	backlog []netsim.Duration
	delays  []netsim.Duration
	kind    []int
	groups  [][]asic.CopySpec // group g is groups[g-1]
	frames  []mcastFrame
	unhook  netsim.Time
}

const missingPort = 99

func randomMcastRig(seed int64) *mcastRig {
	rng := netsim.NewRNG(seed, "mcast-copy")
	r := &mcastRig{}
	for n := 3 + rng.Intn(4); len(r.gbps) < n; {
		r.gbps = append(r.gbps, []float64{10, 40, 100}[rng.Intn(3)])
		r.backlog = append(r.backlog, []netsim.Duration{0, 2 * netsim.Microsecond, 400 * netsim.Nanosecond}[rng.Intn(3)])
		r.delays = append(r.delays, netsim.Duration(rng.Int63n(int64(20*netsim.Nanosecond)+1)))
		r.kind = append(r.kind, []int{countingSink, countingSink, hookedSink, unplugged, unhookedSink}[rng.Intn(5)])
	}
	r.kind[0] = unplugged // the feed
	for g := 1 + rng.Intn(4); g > 0; g-- {
		var group []asic.CopySpec
		for k := 1 + rng.Intn(6); k > 0; k-- {
			port := 1 + rng.Intn(len(r.gbps)-1)
			switch rng.Intn(8) {
			case 0:
				port = asic.RecircPortBase
			case 1:
				port = missingPort
			}
			group = append(group, asic.CopySpec{Port: port, Rid: rng.Intn(3)})
		}
		r.groups = append(r.groups, group)
	}
	for bursts := 3 + rng.Intn(6); bursts > 0; bursts-- {
		at := netsim.Time(rng.Int63n(int64(20 * netsim.Microsecond)))
		for k := 1 + rng.Intn(30); k > 0; k-- {
			size := 64 + rng.Intn(1000)
			if rng.Intn(3) == 0 {
				size = 64
			}
			r.frames = append(r.frames, mcastFrame{at: at, group: rng.Intn(len(r.groups) + 1), size: size, proto: rng.Intn(4)})
			at = at.Add(netsim.Duration(rng.Int63n(int64(120 * netsim.Nanosecond))))
		}
	}
	sort.SliceStable(r.frames, func(i, j int) bool { return r.frames[i].at < r.frames[j].at })
	r.unhook = r.frames[rng.Intn(len(r.frames))].at.Add(netsim.Duration(rng.Int63n(int64(200 * netsim.Nanosecond))))
	return r
}

func (f mcastFrame) build(t *testing.T, i int) []byte {
	t.Helper()
	src, dst := netproto.MustIPv4("10.0.0.1"), netproto.MustIPv4("10.0.0.2")
	var raw []byte
	var err error
	switch f.proto {
	case 1:
		raw, err = netproto.BuildTCP(netproto.TCPSpec{SrcIP: src, DstIP: dst, SrcPort: uint16(i), DstPort: 80, Seq: uint32(i) * 1000, Flags: netproto.TCPSyn, FrameLen: f.size})
	case 2:
		raw, err = netproto.BuildICMP(netproto.ICMPSpec{SrcIP: src, DstIP: dst, Type: 8, Ident: uint16(i), Seq: 1, FrameLen: f.size})
	default:
		raw, err = netproto.BuildUDP(netproto.UDPSpec{SrcIP: src, DstIP: dst, SrcPort: uint16(i), DstPort: 9, FrameLen: f.size, VLAN: f.proto == 3, VlanID: 7})
	}
	if err != nil {
		t.Fatal(err)
	}
	// The group rides in the IPv4 ID.
	ip := raw[netproto.EthernetLen:]
	if f.proto == 3 {
		ip = ip[netproto.Dot1QLen:]
	}
	binary.BigEndian.PutUint16(ip[4:6], uint16(f.group))
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], netproto.FoldChecksum(netproto.Checksum(0, ip[:netproto.IPv4MinLen])))
	return raw
}

// mcastBed is a built mcastRig.
type mcastBed struct {
	sim   *netsim.Sim
	sw    *asic.Switch
	ports []*asic.Port
	sinks []*testbed.Sink // nil for an unplugged port
	// egress is what every egress pass saw; delivered is every frame a
	// hooked-sink port delivered, bytes included.
	egress, delivered []string
	// unhooked is how many multicast copies replicated with a frame reached
	// egress end with their port accounting, an unhookedSink's hook gone.
	unhooked int
}

// build makes the rig; allHooked puts a no-op hook on every sink before
// traffic, which gives every copy a frame and keeps every serialization end
// and arrival an event.
func (r *mcastRig) build(t *testing.T, allHooked bool) *mcastBed {
	t.Helper()
	b := &mcastBed{sim: netsim.New()}
	sw := asic.New(asic.Config{Name: "mcast", Sim: b.sim, PortGbps: r.gbps, Seed: 1})
	b.sw = sw
	for g, group := range r.groups {
		if err := sw.Mcast.SetGroup(g+1, group); err != nil {
			t.Fatal(err)
		}
	}
	outs := len(r.gbps) - 1
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		if p.Meta.InPort >= asic.RecircPortBase {
			// A recirculated copy leaves unicast, or has no route.
			p.EgressPort = 1 + int(p.Meta.UID)%(outs+1)
			return
		}
		id := asic.FieldIPv4ID.Get(p)
		if id&0xff == 0 {
			p.EgressPort = 1 + int(p.Meta.UID)%outs
			return
		}
		p.McastGroup = int(id & 0xff)
		if id&0xff%2 == 1 {
			// A dirty PHV reaches replication: it is deparsed and parsed
			// once more there.
			asic.FieldIPv4TTL.Set(p, asic.FieldIPv4TTL.Get(p)-1)
		}
		if p.Meta.UID%3 == 0 {
			p.Meta.Record = []uint64{p.Meta.UID, 0}
		}
	}))
	sw.Egress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		s := &p.Stack
		line := fmt.Sprintf("uid %d port %d rid %d len %d at %v layers %v ip %+v", p.Meta.UID, p.EgressPort,
			p.Meta.ReplicaID, p.FrameLen, b.sim.Now(), s.Decoded, s.IP4)
		switch {
		case p.Has(netproto.LayerTCP):
			line += fmt.Sprintf(" tcp %+v", s.TCP)
			asic.FieldTCPSeq.Set(p, asic.FieldTCPSeq.Get(p)+uint64(p.EgressPort))
		case p.Has(netproto.LayerUDP):
			line += fmt.Sprintf(" udp %+v", s.UDP)
			asic.FieldUDPDstPort.Set(p, uint64(p.EgressPort))
		case p.Has(netproto.LayerICMP):
			line += fmt.Sprintf(" icmp %+v", s.ICMP)
			asic.FieldICMPSeq.Set(p, uint64(p.Meta.ReplicaID))
		}
		if p.Has(netproto.LayerVLAN) {
			line += fmt.Sprintf(" vlan %+v", s.VLAN)
			asic.FieldVlanPCP.Set(p, 5)
		}
		if rec := p.Meta.Record; rec != nil {
			// Every copy owns its record: a write here is seen by no
			// other copy.
			line += fmt.Sprintf(" record %v", rec)
			rec[1] += uint64(p.EgressPort)
		}
		b.egress = append(b.egress, line)
		if (p.Meta.UID*7+uint64(p.EgressPort))%5 == 0 {
			p.Drop = true
		} else if id := p.EgressPort; id < len(r.kind) && r.kind[id] == unhookedSink && b.sinks[id].OnPacket == nil &&
			p.Pkt != nil && p.Meta.Replica && p.Meta.InPort == 0 {
			// Replicated with a frame, so before the hook went.
			b.unhooked++
		}
	}))
	for id := range r.gbps {
		pt := sw.Port(id)
		pt.MaxBacklog = r.backlog[id]
		b.ports = append(b.ports, pt)
		if r.kind[id] == unplugged {
			b.sinks = append(b.sinks, nil)
			continue
		}
		s := testbed.NewSink(b.sim, fmt.Sprintf("sink%d", id), r.gbps[id])
		s.RecordTimestamps = true
		if r.kind[id] == hookedSink {
			id := id
			s.OnPacket = func(pkt *netproto.Packet, at netsim.Time) {
				var st netproto.Stack
				_ = st.Decode(pkt.Data)
				ip := pkt.Data[netproto.EthernetLen:]
				if st.Has(netproto.LayerVLAN) {
					ip = ip[netproto.Dot1QLen:]
				}
				ok := !st.Has(netproto.LayerIPv4) || st.IP4.VerifyChecksum(ip)
				b.delivered = append(b.delivered, fmt.Sprintf("port %d at %v uid %d checksum ok %v bytes %x", id, at, pkt.Meta.UID, ok, pkt.Data))
				pkt.Release()
			}
		} else if allHooked || r.kind[id] == unhookedSink {
			s.OnPacket = func(pkt *netproto.Packet, at netsim.Time) { pkt.Release() }
		}
		testbed.Connect(b.sim, pt, s.Iface, r.delays[id])
		b.sinks = append(b.sinks, s)
	}
	for i, f := range r.frames {
		pkt := &netproto.Packet{Data: f.build(t, i)}
		pkt.Meta.UID = uint64(i + 1)
		b.sim.At(f.at, func() { sw.Port(0).Receive(pkt) })
	}
	return b
}

// mcastView is everything a copy's fate shows in: every port's and the
// recirculation path's counters, every sink's, and the switch's drops.
type mcastView struct {
	Ports                         [][5]uint64
	Recirc                        [5]uint64
	Sinks                         []sinkView
	PipelineDrops, NoRouteDrops   uint64
	EgressPasses, DeliveredFrames int
}

func (b *mcastBed) view() mcastView {
	v := mcastView{PipelineDrops: b.sw.PipelineDrops, NoRouteDrops: b.sw.NoRouteDrops,
		EgressPasses: len(b.egress), DeliveredFrames: len(b.delivered)}
	for _, pt := range b.ports {
		v.Ports = append(v.Ports, [5]uint64{pt.TxPackets, pt.TxBytes, pt.RxPackets, pt.RxBytes, pt.TxDrops})
	}
	rc := b.sw.Port(asic.RecircPortBase)
	v.Recirc = [5]uint64{rc.TxPackets, rc.TxBytes, rc.RxPackets, rc.RxBytes, rc.TxDrops}
	for _, s := range b.sinks {
		if s == nil {
			v.Sinks = append(v.Sinks, sinkView{})
			continue
		}
		v.Sinks = append(v.Sinks, sinkView{
			IfaceRx: s.Iface.RxPackets, IfaceRxBytes: s.Iface.RxBytes,
			Packets: s.Packets, Bytes: s.Bytes, First: s.First, Last: s.Last,
			Timestamps: append([]float64(nil), s.Timestamps...),
		})
	}
	return v
}

// TestMcastFramelessMatchesFramed: randomised multicast and unicast rigs
// against the same rigs with a hook on every sink — port, interface and sink
// counters, the switch's drop counters and timestamps at cuts 50 ns apart,
// then what every egress pass saw (headers, checksums, records), every frame
// a hooked sink got byte for byte, and the clock a drained run stops at.
func TestMcastFramelessMatchesFramed(t *testing.T) {
	var copies, accounted, tailDrops, pipeDrops, noRoute uint64
	unicast, unhooked := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		r := randomMcastRig(seed)
		frameless, framed := r.build(t, false), r.build(t, true)
		last := r.frames[len(r.frames)-1].at.Add(30 * netsim.Microsecond)
		for now := netsim.Time(0); now <= last; now = now.Add(50 * netsim.Nanosecond) {
			if now >= r.unhook {
				for id, s := range frameless.sinks {
					if r.kind[id] == unhookedSink {
						s.OnPacket = nil
					}
				}
			}
			frameless.sim.RunUntil(now)
			framed.sim.RunUntil(now)
			if got, want := frameless.view(), framed.view(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, cut %v, kinds %v: frameless %+v\nframed %+v", seed, now, r.kind, got, want)
			}
		}
		frameless.sim.Run()
		framed.sim.Run()
		if frameless.sim.Now() != framed.sim.Now() {
			t.Fatalf("seed %d: a drained run stops at %v frameless, %v framed", seed, frameless.sim.Now(), framed.sim.Now())
		}
		if got, want := frameless.view(), framed.view(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d drained: frameless %+v\nframed %+v", seed, got, want)
		}
		for i := range framed.egress {
			if frameless.egress[i] != framed.egress[i] {
				t.Fatalf("seed %d: egress pass %d saw\n%s frameless,\n%s framed", seed, i, frameless.egress[i], framed.egress[i])
			}
		}
		for i := range framed.delivered {
			if frameless.delivered[i] != framed.delivered[i] {
				t.Fatalf("seed %d: hooked-sink delivery %d\n%s frameless,\n%s framed", seed, i, frameless.delivered[i], framed.delivered[i])
			}
			if !strings.Contains(framed.delivered[i], "checksum ok true") {
				t.Fatalf("seed %d: a delivered frame's IPv4 checksum fails: %s", seed, framed.delivered[i])
			}
		}
		v := framed.view()
		copies += uint64(len(framed.egress))
		unhooked += frameless.unhooked
		for _, f := range r.frames {
			if f.group == 0 {
				unicast++
			}
		}
		pipeDrops += v.PipelineDrops
		noRoute += v.NoRouteDrops
		for id, s := range v.Sinks {
			if r.kind[id] == countingSink {
				accounted += s.Packets
				tailDrops += v.Ports[id][4]
			}
		}
	}
	if accounted == 0 || tailDrops == 0 || pipeDrops == 0 || noRoute == 0 || unicast == 0 || unhooked == 0 {
		t.Fatalf("rigs too tame: %d egress passes, %d frames accounted at counting sinks, %d tail-dropped on their ports, %d pipeline drops, %d no-route drops, %d unicast frames, %d framed copies accounted after an unhook",
			copies, accounted, tailDrops, pipeDrops, noRoute, unicast, unhooked)
	}
	t.Logf("%d egress passes, %d frames accounted at counting sinks, %d tail-dropped on their ports, %d pipeline drops, %d no-route drops, %d unicast frames, %d framed copies accounted after an unhook",
		copies, accounted, tailDrops, pipeDrops, noRoute, unicast, unhooked)
}

// TestMcastFramelessCopyPinsPeer: a port's peer cannot change while copies
// replication sent towards its counting sink without a frame are on their way
// to egress — they could not reach the new peer.
func TestMcastFramelessCopyPinsPeer(t *testing.T) {
	sim := netsim.New()
	sw := asic.New(asic.Config{Name: "pin", Sim: sim, PortGbps: []float64{100, 100}, Seed: 1})
	if err := sw.Mcast.SetGroup(1, []asic.CopySpec{{Port: 1, Rid: 1}}); err != nil {
		t.Fatal(err)
	}
	replicated := false
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) { p.McastGroup, replicated = 1, true }))
	s := testbed.NewSink(sim, "pinned", 100)
	testbed.Connect(sim, sw.Port(1), s.Iface, 0)
	sw.Port(0).Receive(&netproto.Packet{Data: mcastFrame{group: 1, size: 64}.build(t, 1)})
	for !replicated {
		sim.RunFor(netsim.Nanosecond)
	}
	if sw.Egress.Packets != 0 {
		t.Fatal("the copy left egress before the cut")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "port 1 of pin") || !strings.Contains(msg, "frameless") {
			t.Fatalf("SetPeer with a frameless copy in flight: panic %q, want one naming the port", msg)
		}
	}()
	sw.Port(1).SetPeer(func(pkt *netproto.Packet, at netsim.Time) {})
}

// TestMcastToCountingSinksZeroAllocs: one template arrival replicated to four
// ports cabled to sinks that only count — copies without a frame, the
// original released at replication — allocates nothing once the pools and
// the ports' queues are warm.
func TestMcastToCountingSinksZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	sim := netsim.New()
	sw := asic.New(asic.Config{Name: "zero", Sim: sim, PortGbps: []float64{100, 100, 100, 100, 100}, Seed: 1})
	var group []asic.CopySpec
	var sinks []*testbed.Sink
	for id := 1; id <= 4; id++ {
		group = append(group, asic.CopySpec{Port: id, Rid: id})
		s := testbed.NewSink(sim, fmt.Sprintf("sink%d", id), 100)
		testbed.Connect(sim, sw.Port(id), s.Iface, testbed.DefaultCableDelay)
		sinks = append(sinks, s)
	}
	if err := sw.Mcast.SetGroup(1, group); err != nil {
		t.Fatal(err)
	}
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) { p.McastGroup = 1 }))
	base := &netproto.Packet{Data: mcastFrame{group: 1, size: 64}.build(t, 1)}
	run := func() {
		sw.Port(0).Receive(base.Clone())
		sim.Run()
	}
	for i := 0; i < 32; i++ {
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("4-way replication to counting sinks allocates %v allocs/op, want 0", avg)
	}
	if n := sinkPackets(sinks); n != 4*(32+201) {
		t.Fatalf("sinks counted %d frames, want %d", n, 4*(32+201))
	}
}
