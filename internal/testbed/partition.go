package testbed

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
)

// Partition maps a testbed topology onto the parallel engine's logical
// processes: one LP per device (switch ASIC + its CPU, server, sink, software
// generator), with every cable between devices on different LPs becoming a
// cross-LP channel whose lookahead is derived from calibrated link physics:
//
//	lookahead = egress + MAC latency (switch-port sources only)
//	          + wire time of a minimum-size frame at the source rate
//	          + cable propagation delay
//	          + MAC/ingress-pipeline latency (switch-port destinations only)
//
// With workers <= 1 the partition degenerates to a single shared sequential
// Sim — the default engine, and the reference the differential determinism
// tests compare against.
type Partition struct {
	eng    *netsim.Engine
	shared *netsim.Sim
}

// NewPartition builds a partition whose LPs run on up to workers goroutines.
func NewPartition(workers int) *Partition {
	if workers <= 1 {
		return &Partition{shared: netsim.New()}
	}
	return &Partition{eng: netsim.NewEngine(workers)}
}

// Engine returns the underlying parallel engine, or nil in sequential mode.
// Observability code uses it to register per-LP metrics (obs.DescribeEngine).
func (p *Partition) Engine() *netsim.Engine { return p.eng }

// LP returns the simulator for one logical process (device). In sequential
// mode every device shares one Sim.
func (p *Partition) LP(name string) *netsim.Sim {
	if p.eng == nil {
		return p.shared
	}
	return p.eng.NewLP(name)
}

// Now returns the partition's virtual clock.
func (p *Partition) Now() netsim.Time {
	if p.eng == nil {
		return p.shared.Now()
	}
	return p.eng.Now()
}

// RunUntil executes all events with timestamps <= deadline on every LP.
func (p *Partition) RunUntil(deadline netsim.Time) {
	if p.eng == nil {
		p.shared.RunUntil(deadline)
		return
	}
	p.eng.RunUntil(deadline)
}

// RunFor advances the partition clock by d.
func (p *Partition) RunFor(d netsim.Duration) { p.RunUntil(p.Now().Add(d)) }

// endpoint resolves an attachment point's simulator, line rate, and switch
// port (nil for device interfaces).
func endpoint(a Attach) (*netsim.Sim, float64, *asic.Port) {
	switch x := a.(type) {
	case *Iface:
		return x.Sim(), x.Gbps, nil
	case *asic.Port:
		return x.Sim(), x.Gbps, x
	}
	panic(fmt.Sprintf("testbed: cannot partition attachment type %T", a))
}

// minFrameLen is the smallest Ethernet frame the testbed generates; its wire
// time bounds from below how far ahead of its clock a source can hand a
// frame to the cable, so it is the serialization share of the lookahead.
const minFrameLen = 64

// Connect joins two attachment points with a full-duplex cable of the given
// propagation delay, splitting the cable into a pair of cross-LP channels
// when its endpoints live on different LPs.
func (p *Partition) Connect(a, b Attach, propagation netsim.Duration) {
	sa, _, _ := endpoint(a)
	sb, _, _ := endpoint(b)
	if p.eng == nil || sa == sb {
		Connect(sa, a, b, propagation)
		return
	}
	p.wire(a, b, propagation)
	p.wire(b, a, propagation)
}

// lookahead is the calibrated lookahead of the src -> dst half of a cable. A
// switch port hands a frame to the channel at egress end, TransmitLookahead
// before the frame reaches the MAC; any source's frame then takes at least a
// minimum frame's wire time to serialize and the cable's delay to arrive; and
// a delivery to a switch port targets pipeline entry, DeliverLookahead after
// the arrival.
func lookahead(src, dst Attach, propagation netsim.Duration) netsim.Duration {
	_, srcGbps, srcPort := endpoint(src)
	_, _, dstPort := endpoint(dst)
	la := netsim.Ns(netproto.WireTimeNs(minFrameLen, srcGbps)) + propagation
	if srcPort != nil {
		la += srcPort.TransmitLookahead()
	}
	if dstPort != nil {
		la += dstPort.DeliverLookahead()
	}
	return la
}

// wire installs the src -> dst half of a partitioned cable: registers the
// engine channel with its calibrated lookahead and diverts src transmissions
// into cross-LP messages.
//
// Message timing preserves the sequential engine's schedule exactly. For an
// interface destination the delivery event runs at the wire-arrival time and
// carries schedAt = serialization end — the (at, schedAt) the sequential
// cable hop has — and, as its parent stamp, the time the frame reached the
// source's MAC: the clock for an interface, TransmitLookahead ahead of it for
// a switch port. For a switch-port destination the arrival-time delivery
// only *schedules* pipeline entry after the MAC/ingress latency, so the
// message instead targets that deferred instant directly (at = arrival +
// ingress latency, schedAt = arrival), buying the channel an extra
// DeliverLookahead of lookahead. The sequential engine credits the port's
// RX counters at the arrival instant, inside that window — the message
// carries the credit as a boundary side effect (PostRemotePre with preAt =
// arrival, flushed if a RunUntil deadline lands between arrival and
// pipeline entry) so counters sampled at any boundary stay bit-identical.
func (p *Partition) wire(src, dst Attach, propagation netsim.Duration) {
	ss, _, srcPort := endpoint(src)
	ds, _, dstPort := endpoint(dst)
	p.eng.Channel(ss, ds, lookahead(src, dst, propagation))
	var txLA netsim.Duration
	if srcPort != nil {
		txLA = srcPort.TransmitLookahead()
	}
	send := func(pkt *netproto.Packet, end netsim.Time) {
		arrival := end.Add(propagation)
		j := linkJobPool.Get().(*linkJob)
		j.pkt = pkt
		if dstPort != nil {
			j.port, j.arrival, j.n = dstPort, arrival, pkt.Len()
			ss.PostRemotePre(ds, arrival.Add(dstPort.DeliverLookahead()), arrival, end, arrival,
				runRemoteRxCredit, runRemoteArrival, j)
			return
		}
		j.dst = dst
		ss.PostRemotePre(ds, arrival, end, ss.Now().Add(txLA), 0, nil, runRemoteArrival, j)
	}
	switch x := src.(type) {
	case *Iface:
		x.SetRemote(send)
	case *asic.Port:
		x.SetRemote(send)
	}
}
