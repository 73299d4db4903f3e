// Package testbed assembles evaluation topologies: device network
// interfaces, cables with serialization and propagation delay, rate/latency
// meters, and the devices under test the paper's experiments need — a
// forwarding switch, stateful TCP/HTTP servers, scan targets and reflectors.
// The reference topology mirrors Fig. 8 (two Tofino switches, two servers,
// 100/40/10 Gbps cables).
package testbed

import (
	"sync"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// linkJob carries one in-flight frame delivery (cable propagation or NIC
// serialization) so links schedule through netsim.AtCall without a capturing
// closure per frame. Jobs of interfaces and cross-LP channels come from a
// sync.Pool, because testbeds from different experiments run concurrently
// under the parallel suite runner and a cross-LP job is returned by another
// LP than drew it; a same-Sim cable recycles its own (see cable).
type linkJob struct {
	dst   Attach
	iface *Iface
	pkt   *netproto.Packet
	// cable, set for life on a job a cable allocated, is the free list the
	// job returns to.
	cable *cable
	// Cross-LP delivery state (partition.go): the destination switch port
	// (nil for interface destinations), the wire-arrival timestamp, and a
	// byte count plus packet UID for TX-counter credits (and their wire_tx
	// trace records) that outlive the packet handoff.
	port    *asic.Port
	arrival netsim.Time
	n       int
	uid     uint64
	// credited records that the destination port's RX counters were
	// already credited by the engine's boundary flush (runRemoteRxCredit),
	// so the deferred-arrival handler must not credit them again.
	credited bool
}

var linkJobPool = sync.Pool{New: func() any { return new(linkJob) }}

// cable is a full-duplex cable between two attachment points on one Sim. It is
// single-threaded with that Sim and belongs to one testbed, so its delivery
// jobs recycle through a plain free list — the cable hop is once per frame of
// every workload, and a sync.Pool Get+Put there cost more than the hop's own
// bookkeeping.
type cable struct {
	sim         *netsim.Sim
	propagation netsim.Duration
	free        []*linkJob
}

// carry schedules pkt, whose last bit left the near end at time at, to arrive
// at dst one propagation delay later.
func (c *cable) carry(dst Attach, pkt *netproto.Packet, at netsim.Time) {
	var j *linkJob
	if n := len(c.free); n > 0 {
		j, c.free = c.free[n-1], c.free[:n-1]
	} else {
		j = &linkJob{cable: c}
	}
	j.dst, j.pkt = dst, pkt
	c.sim.AtCall(at.Add(c.propagation), runDeliverJob, j)
}

// runDeliverJob completes a cable hop: the frame arrives at the far end.
func runDeliverJob(a any) {
	j := a.(*linkJob)
	dst, pkt := j.dst, j.pkt
	j.dst, j.pkt = nil, nil
	j.cable.free = append(j.cable.free, j)
	dst.Deliver(pkt)
}

// runIfaceTxJob completes a NIC serialization: the last bit left the
// interface, so the current virtual time is the egress timestamp.
func runIfaceTxJob(a any) {
	j := a.(*linkJob)
	i, pkt := j.iface, j.pkt
	*j = linkJob{}
	linkJobPool.Put(j)
	i.TxPackets++
	i.TxBytes += uint64(pkt.Len())
	end := i.sim.Now()
	i.trace.Emit(end, obs.KindWireTx, pkt.Meta.UID, i.Name, 0, int64(pkt.Len()))
	pkt.Meta.EgressPs = int64(end)
	if i.peer != nil {
		i.peer(pkt, end)
	}
}

// runIfaceSendJob hands a frame to its interface after a device's processing
// delay.
func runIfaceSendJob(a any) {
	j := a.(*linkJob)
	i, pkt := j.iface, j.pkt
	*j = linkJob{}
	linkJobPool.Put(j)
	i.Send(pkt)
}

// runIfaceTxCountJob credits TX counters at serialization end for frames
// already staged to a remote LP (see Iface.Send's remote path). Scheduled
// at Send time for the serialization-end instant — the same slot
// runIfaceTxJob's wire_tx record occupies under the sequential engine.
func runIfaceTxCountJob(a any) {
	j := a.(*linkJob)
	i, n, uid := j.iface, j.n, j.uid
	*j = linkJob{}
	linkJobPool.Put(j)
	i.TxPackets++
	i.TxBytes += uint64(n)
	i.trace.Emit(i.sim.Now(), obs.KindWireTx, uid, i.Name, 0, int64(n))
}

// runRemoteRxCredit is the boundary side effect of a deferred switch-port
// delivery (netsim.PostRemotePre): the sequential engine credits RX counters
// at wire arrival, one ingress latency before pipeline entry, so when a
// RunUntil deadline lands inside that window the engine flushes the credit
// at the boundary. runRemoteArrival skips the credit once this has run.
func runRemoteRxCredit(a any) {
	j := a.(*linkJob)
	j.credited = true
	j.port.CreditRX(j.n)
}

// runRemoteArrival completes a cross-LP cable hop on the destination LP:
// deferred port ingress for switch-port destinations (the frame arrived
// DeliverLookahead earlier — see asic.Port.DeliverDeferred), plain delivery
// for interface destinations.
func runRemoteArrival(a any) {
	j := a.(*linkJob)
	port, dst, pkt, arrival, credited := j.port, j.dst, j.pkt, j.arrival, j.credited
	*j = linkJob{}
	linkJobPool.Put(j)
	if port != nil {
		if !credited {
			port.CreditRX(pkt.Len())
		}
		port.DeliverDeferred(pkt, arrival)
	} else {
		dst.Deliver(pkt)
	}
}

// Attach is anything a cable can plug into: a switch port or a device
// interface. SetPeer installs the far end; Deliver accepts a frame arriving
// off the wire now.
type Attach interface {
	SetPeer(fn func(pkt *netproto.Packet, at netsim.Time))
	Deliver(pkt *netproto.Packet)
}

// Iface is a device-side network interface (a NIC port): it serializes
// outgoing frames at its rate and hands incoming frames to the device.
type Iface struct {
	Name string
	Gbps float64

	sim  *netsim.Sim
	peer func(pkt *netproto.Packet, at netsim.Time)
	recv func(pkt *netproto.Packet)
	// sink is the Sink whose receive is recv, nil once anything else is.
	sink *Sink

	// remote, when set, diverts outgoing frames to a cross-LP channel of
	// the parallel engine at Send time (with the computed serialization-end
	// timestamp), mirroring asic.Port's remote hook.
	remote func(pkt *netproto.Packet, end netsim.Time)

	txBusyUntil netsim.Time
	wire        asic.WireMemo

	// trace, when non-nil, records wire_rx/wire_tx lifecycle events. Both
	// emission points (Deliver at arrival, TX completion at serialization
	// end) run at engine-invariant instants — see package obs.
	trace *obs.Trace

	// Counters.
	TxPackets, TxBytes uint64
	RxPackets, RxBytes uint64
}

// NewIface builds an interface with the given line rate.
func NewIface(sim *netsim.Sim, name string, gbps float64) *Iface {
	return &Iface{Name: name, Gbps: gbps, sim: sim}
}

// SetPeer implements Attach.
func (i *Iface) SetPeer(fn func(pkt *netproto.Packet, at netsim.Time)) { i.peer = fn }

// SetRemote diverts this interface's transmissions to a cross-LP staging
// hook. Used by Partition for partitioned links.
func (i *Iface) SetRemote(fn func(pkt *netproto.Packet, end netsim.Time)) { i.remote = fn }

// Sim returns the simulation clock this interface is bound to.
func (i *Iface) Sim() *netsim.Sim { return i.sim }

// SetTrace attaches a trace stream (nil disables tracing).
func (i *Iface) SetTrace(tr *obs.Trace) { i.trace = tr }

// OnReceive installs the device's frame handler.
func (i *Iface) OnReceive(fn func(pkt *netproto.Packet)) { i.recv, i.sink = fn, nil }

// Deliver implements Attach: a frame has fully arrived now.
func (i *Iface) Deliver(pkt *netproto.Packet) {
	i.RxPackets++
	i.RxBytes += uint64(pkt.Len())
	i.trace.Emit(i.sim.Now(), obs.KindWireRx, pkt.Meta.UID, i.Name, 0, int64(pkt.Len()))
	pkt.Meta.IngressPs = int64(i.sim.Now())
	if i.recv != nil {
		i.recv(pkt)
	}
}

// Send serializes a frame onto the wire at the interface rate and delivers
// it to the peer when the last bit leaves.
func (i *Iface) Send(pkt *netproto.Packet) {
	now := i.sim.Now()
	start := i.txBusyUntil
	if start < now {
		start = now
	}
	end := start.Add(i.wire.Time(pkt.Len(), i.Gbps))
	i.txBusyUntil = end
	if i.remote != nil {
		// Cross-LP path: stamp the egress timestamp now (its value is the
		// same one runIfaceTxJob would write at end), hand the frame to the
		// staging engine, and credit TX counters with a local event at
		// serialization end, exactly when the sequential engine would.
		j := linkJobPool.Get().(*linkJob)
		j.iface, j.n, j.uid = i, pkt.Len(), pkt.Meta.UID
		i.sim.AtCall(end, runIfaceTxCountJob, j)
		pkt.Meta.EgressPs = int64(end)
		i.remote(pkt, end)
		return
	}
	j := linkJobPool.Get().(*linkJob)
	j.iface, j.pkt = i, pkt
	i.sim.AtCall(end, runIfaceTxJob, j)
}

// Connect joins two attachment points with a full-duplex cable of the given
// propagation delay. A switch port cabled to a sink's interface on the same
// Sim gets the sink as its counting far end (asic.FarEnd, DESIGN.md §9.8).
func Connect(sim *netsim.Sim, a, b Attach, propagation netsim.Duration) {
	c := &cable{sim: sim, propagation: propagation}
	a.SetPeer(func(pkt *netproto.Packet, at netsim.Time) { c.carry(b, pkt, at) })
	b.SetPeer(func(pkt *netproto.Packet, at netsim.Time) { c.carry(a, pkt, at) })
	farEnd(sim, a, b, propagation)
	farEnd(sim, b, a, propagation)
}

// farEnd makes dst the counting far end of src when src is a front-panel
// switch port and dst a sink's interface, both on sim.
func farEnd(sim *netsim.Sim, src, dst Attach, propagation netsim.Duration) {
	pt, ok := src.(*asic.Port)
	i, isIface := dst.(*Iface)
	if !ok || !isIface || i.sink == nil || pt.Loopback || pt.Sim() != sim || i.sim != sim {
		return
	}
	pt.SetFarEnd(sinkEnd{i.sink}, propagation)
	i.sink.feeds = append(i.sink.feeds, pt.Sync)
}

// DefaultCableDelay is the propagation delay of a short DAC cable.
const DefaultCableDelay = 5 * netsim.Nanosecond

// ConnectLossy joins two attachment points with a cable that drops each
// frame independently with the given probability — the substrate for
// packet-loss measurement tasks (§1 names loss measurement as a core
// network-tester duty).
func ConnectLossy(sim *netsim.Sim, a, b Attach, propagation netsim.Duration, lossRate float64, seed int64) *LossyLink {
	l := &LossyLink{rng: netsim.NewRNG(seed, "lossy-link"), rate: lossRate}
	c := &cable{sim: sim, propagation: propagation}
	forward := func(dst Attach) func(pkt *netproto.Packet, at netsim.Time) {
		return func(pkt *netproto.Packet, at netsim.Time) {
			if l.rng.Float64() < l.rate {
				l.Dropped++
				pkt.Release() // the frame dies on this cable; recycle it
				return
			}
			l.Delivered++
			c.carry(dst, pkt, at)
		}
	}
	a.SetPeer(forward(b))
	b.SetPeer(forward(a))
	return l
}

// LossyLink reports what a lossy cable did.
type LossyLink struct {
	rng  *netsim.RNG
	rate float64

	Dropped   uint64
	Delivered uint64
}
