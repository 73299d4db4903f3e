package testbed

import (
	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// Reflector bounces every frame back with L2/L3/L4 endpoints swapped, the
// classic loop target for delay measurement.
type Reflector struct {
	Iface     *Iface
	Reflected uint64

	// ExtraDelay adds device processing time before the bounce;
	// ExtraJitter adds a uniform random spread on top (a jittery DUT for
	// delay-variance experiments).
	ExtraDelay  netsim.Duration
	ExtraJitter netsim.Duration

	sim *netsim.Sim
	rng *netsim.RNG
	// phv is the one header vector every frame is parsed into, rewritten
	// through and deparsed from; it holds a frame only inside receive.
	phv asic.PHV
}

// NewReflector builds a reflector behind one interface. Its jitter stream is
// seeded with 1 until Seed says otherwise.
func NewReflector(sim *netsim.Sim, name string, gbps float64) *Reflector {
	r := &Reflector{Iface: NewIface(sim, name, gbps), sim: sim}
	r.Seed(1)
	r.Iface.OnReceive(r.receive)
	return r
}

// Seed restarts the ExtraJitter stream from the run's seed, so a jittery
// reflector follows the testbed's seed like every other random stream.
func (r *Reflector) Seed(seed int64) {
	r.rng = netsim.NewRNG(seed, "reflector/"+r.Iface.Name)
}

// Describe records the bounce count under prefix.
func (r *Reflector) Describe(reg *obs.Registry, prefix string) {
	reg.Num(prefix, "reflected", float64(r.Reflected))
}

// receive bounces the delivered frame itself: a delivered frame belongs to
// its receiver (DESIGN.md §5), so the swap is done in place and the same
// packet goes back out.
func (r *Reflector) receive(pkt *netproto.Packet) {
	phv := &r.phv
	if err := phv.Stack.Decode(pkt.Data); err != nil {
		pkt.Release()
		return
	}
	phv.Pkt, phv.FrameLen = pkt, pkt.Len()
	asic.FieldEthSrc.Set(phv, asic.FieldEthDst.Get(phv))
	if phv.Has(netproto.LayerIPv4) {
		src, dst := asic.FieldIPv4Src.Get(phv), asic.FieldIPv4Dst.Get(phv)
		asic.FieldIPv4Src.Set(phv, dst)
		asic.FieldIPv4Dst.Set(phv, src)
	}
	switch {
	case phv.Has(netproto.LayerTCP):
		sp, dp := asic.FieldTCPSrcPort.Get(phv), asic.FieldTCPDstPort.Get(phv)
		asic.FieldTCPSrcPort.Set(phv, dp)
		asic.FieldTCPDstPort.Set(phv, sp)
	case phv.Has(netproto.LayerUDP):
		sp, dp := asic.FieldUDPSrcPort.Get(phv), asic.FieldUDPDstPort.Get(phv)
		asic.FieldUDPSrcPort.Set(phv, dp)
		asic.FieldUDPDstPort.Set(phv, sp)
	}
	phv.Deparse()
	phv.Pkt = nil
	r.Reflected++
	d := r.ExtraDelay
	if r.ExtraJitter > 0 {
		d += netsim.Duration(r.rng.Int63n(int64(r.ExtraJitter)))
	}
	j := linkJobPool.Get().(*linkJob)
	j.iface, j.pkt = r.Iface, pkt
	r.sim.AfterCall(d, runIfaceSendJob, j)
}

// ScanTarget emulates an IPv4 address space for Internet-scanning tasks:
// a deterministic subset of addresses is "live", and live hosts answer TCP
// SYNs on open ports with SYN+ACK, closed ports with RST. Dead addresses
// stay silent. Liveness derives from a hash so any scan order sees the same
// population.
type ScanTarget struct {
	Iface *Iface

	// LivePermille is how many of 1000 addresses respond at all.
	LivePermille int
	// OpenPorts answers SYN+ACK; other ports on live hosts answer RST.
	OpenPorts map[uint16]bool

	ProbesSeen  uint64
	SynAcksSent uint64
	RstsSent    uint64

	sim   *netsim.Sim
	hash  *asic.HashUnit
	stack netproto.Stack
}

// NewScanTarget builds a scan target behind one interface.
func NewScanTarget(sim *netsim.Sim, name string, gbps float64) *ScanTarget {
	t := &ScanTarget{
		Iface:        NewIface(sim, name, gbps),
		LivePermille: 50,
		OpenPorts:    map[uint16]bool{80: true, 443: true},
		sim:          sim,
		hash:         asic.NewHashUnit("scan-liveness", asic.PolyCRC32C),
	}
	t.Iface.OnReceive(t.receive)
	return t
}

// Live reports whether an address belongs to the responding population.
func (t *ScanTarget) Live(ip netproto.IPv4Addr) bool {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)
	return int(t.hash.Sum(b[:])%1000) < t.LivePermille
}

// Describe records the probe and answer counters under prefix.
func (t *ScanTarget) Describe(r *obs.Registry, prefix string) {
	r.Num(prefix, "probes_seen", float64(t.ProbesSeen))
	r.Num(prefix, "synacks_sent", float64(t.SynAcksSent))
	r.Num(prefix, "rsts_sent", float64(t.RstsSent))
}

func (t *ScanTarget) receive(pkt *netproto.Packet) {
	if err := t.stack.Decode(pkt.Data); err != nil || !t.stack.Has(netproto.LayerTCP) {
		return
	}
	if t.stack.TCP.Flags&netproto.TCPSyn == 0 || t.stack.TCP.Flags&netproto.TCPAck != 0 {
		return
	}
	t.ProbesSeen++
	dst := t.stack.IP4.Dst
	if !t.Live(dst) {
		return
	}
	flags := uint8(netproto.TCPRst)
	if t.OpenPorts[t.stack.TCP.DstPort] {
		flags = netproto.TCPSyn | netproto.TCPAck
	}
	raw, err := netproto.BuildTCP(netproto.TCPSpec{
		SrcMAC: t.stack.Eth.Dst, DstMAC: t.stack.Eth.Src,
		SrcIP: dst, DstIP: t.stack.IP4.Src,
		SrcPort: t.stack.TCP.DstPort, DstPort: t.stack.TCP.SrcPort,
		Seq: uint32(dst) ^ 0x5a5a5a5a, Ack: t.stack.TCP.Seq + 1,
		Flags: flags, FrameLen: 64,
	})
	if err != nil {
		return
	}
	if flags&netproto.TCPSyn != 0 {
		t.SynAcksSent++
	} else {
		t.RstsSent++
	}
	t.Iface.Send(&netproto.Packet{Data: raw})
}

// NewForwardingDUT builds a second programmable switch configured as a plain
// store-and-forward device under test: every packet arriving on port a
// leaves on portMap[a]. This is the "Tofino switch forwarding delay" DUT of
// the Fig. 18 case study.
func NewForwardingDUT(sim *netsim.Sim, name string, portGbps []float64, portMap map[int]int, seed int64) *asic.Switch {
	sw := asic.New(asic.Config{Name: name, Sim: sim, PortGbps: portGbps, Seed: seed})
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		out, ok := portMap[p.Meta.InPort]
		if !ok {
			p.Drop = true
			return
		}
		p.EgressPort = out
	}))
	return sw
}
