package asic

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// Port is a switch front-panel or internal port. It serializes frames at the
// port rate (a busy-until model equivalent to a FIFO queue) and delivers them
// to the attached sink — a cable towards another device, or, for a
// recirculation port, its own ingress (loopback mode, §6.1).
type Port struct {
	sw   *Switch
	ID   int
	Gbps float64

	// Loopback, when set, wires TX straight back into this port's RX: it
	// marks the Config.RecircPaths internal recirculation ports.
	Loopback bool

	// peer receives frames after full serialization. Nil peers discard
	// (an unplugged port).
	peer func(pkt *netproto.Packet, at netsim.Time)

	// remote, when set, diverts transmissions to a cross-LP channel of the
	// parallel engine: it runs at egress end, TransmitLookahead before the
	// frame reaches the MAC (not at serialization end), with the computed
	// end-of-serialization timestamp, so the partitioned testbed can stage
	// the delivery with full lookahead. TX counters are still credited at
	// serialization end by a local event.
	remote func(pkt *netproto.Packet, end netsim.Time)

	txBusyUntil netsim.Time

	// wire remembers the wire time of recently transmitted frame lengths.
	// loopDone queues the loop model's wire-end hops on this port.
	wire     WireMemo
	loopDone hopRing

	// MaxBacklog bounds how far ahead of real time the TX queue may run
	// before tail-dropping, modelling finite packet buffers. Zero means
	// the switch default. Set it before the port carries traffic.
	MaxBacklog netsim.Duration

	// Counters.
	TxPackets, TxBytes uint64
	RxPackets, RxBytes uint64
	TxDrops            uint64

	// far, once SetFarEnd has given the port a counting far end, holds the
	// frames it accounts instead of scheduling (DESIGN.md §9.8).
	far *farQueue
}

// DefaultMaxBacklog approximates Tofino's per-port share of packet buffer:
// at 100 Gbps, 50 us of backlog is ~625 KB.
const DefaultMaxBacklog = 50 * netsim.Microsecond

// SetPeer attaches the frame sink called at serialization end. Frames leaving
// egress after the call go to fn, not to a far end SetFarEnd attached.
// Multicast copies replication sent towards the far end without a frame
// (DESIGN.md §9.9) could not reach fn, so a call while one is still on its
// way to egress panics.
func (pt *Port) SetPeer(fn func(pkt *netproto.Packet, at netsim.Time)) {
	if q := pt.far; q != nil && q.copies > 0 {
		panic(fmt.Sprintf("asic: port %d of %s got a new peer with %d frameless multicast copies in flight; wire it before traffic starts",
			pt.ID, pt.sw.Name, q.copies))
	}
	pt.peer = fn
	if pt.far != nil {
		pt.far.on = false
	}
}

// FarEnd is a port's far end that does nothing with a frame but count it: a
// measurement endpoint at the other end of a cable on the port's Sim. While
// Counting holds when a frame leaves egress, the port accounts the frame's
// serialization end and its arrival instead of scheduling them (DESIGN.md
// §9.8), and credits both when a sync reaches their instants.
type FarEnd interface {
	// Counting reports whether a frame leaving egress now may be accounted.
	Counting() bool
	// Arrive credits one frame of frameLen bytes whose last bit arrived at
	// at. Calls come in arrival order, at or before the clock.
	Arrive(at netsim.Time, frameLen int)
}

// SetFarEnd makes end, one cable delay of propagation away, the port's
// counting far end; testbed.Connect calls it for a port cabled to a sink.
// Loopback ports keep every hop an event, and a partitioned port's frames
// cross to another LP, so neither takes one.
func (pt *Port) SetFarEnd(end FarEnd, propagation netsim.Duration) {
	if pt.Loopback || pt.remote != nil {
		panic(fmt.Sprintf("asic: port %d of %s cannot account its frames at a far end", pt.ID, pt.sw.Name))
	}
	if pt.far == nil {
		pt.far = &farQueue{}
		pt.sw.sim.OnBoundary(pt.Sync)
	}
	pt.far.end, pt.far.prop, pt.far.on = end, propagation, true
}

// Sync credits the frames the port accounts to its far end (SetFarEnd) up to
// the clock: TX counters for every serialization end at or before Now, the
// far end for every arrival by then. Run boundaries, Switch.Port and the walks call
// it, so counters read there are exact.
func (pt *Port) Sync() {
	if pt.far != nil {
		pt.far.sync(pt, pt.sw.sim.Now())
	}
}

// SetRemote diverts this port's transmissions to a cross-LP staging hook
// (see the remote field). Used by testbed.Partition for partitioned links;
// mutually exclusive with loopback mode, whose frames never leave the switch
// and reach the MAC after a jittered delay no channel could promise.
func (pt *Port) SetRemote(fn func(pkt *netproto.Packet, end netsim.Time)) {
	if pt.Loopback {
		panic(fmt.Sprintf("asic: port %d of %s is in loopback mode and cannot be partitioned", pt.ID, pt.sw.Name))
	}
	pt.remote = fn
}

// Sim returns the simulation clock this port (via its switch) is bound to.
func (pt *Port) Sim() *netsim.Sim { return pt.sw.sim }

// WireMemo remembers the wire time of recently transmitted frame lengths at
// one line rate (the float formula plus rounding, once per length instead of
// once per frame): direct-mapped on the length's low bits. The zero value is
// ready; a serializer — a switch port, a device interface — embeds one.
type WireMemo struct {
	gbps float64
	slot [8]struct {
		n   int
		dur netsim.Duration
	}
}

// Time is netsim.Ns(netproto.WireTimeNs(frameLen, gbps)), remembered per frame
// length; a change of rate forgets everything.
func (m *WireMemo) Time(frameLen int, gbps float64) netsim.Duration {
	if gbps != m.gbps {
		*m = WireMemo{gbps: gbps}
	}
	w := &m.slot[frameLen&7]
	if w.n != frameLen || frameLen == 0 {
		w.n, w.dur = frameLen, netsim.Ns(netproto.WireTimeNs(frameLen, gbps))
	}
	return w.dur
}

func (pt *Port) maxBacklog() netsim.Duration {
	if pt.MaxBacklog == 0 {
		return DefaultMaxBacklog
	}
	return pt.MaxBacklog
}

// reserve books the serializer for a frame of frameLen bytes reaching the MAC
// at tx and returns when its last bit leaves: the busy-until FIFO, which
// starts a frame when the port falls idle, at tx at the earliest. ok is false,
// and nothing is booked, when the queue already runs more than the backlog
// bound ahead of tx — the tail drop.
func (pt *Port) reserve(tx netsim.Time, frameLen int) (end netsim.Time, ok bool) {
	start := max(pt.txBusyUntil, tx)
	if start.Sub(tx) > pt.maxBacklog() {
		return 0, false
	}
	end = start.Add(pt.wire.Time(frameLen, pt.Gbps))
	pt.txBusyUntil = end
	return end, true
}

// transmit is a loopback port's MAC hop as an event, run when the frame
// reaches the MAC (DESIGN.md §9.7). The port's busy-until chain is shared with
// the loop model's transmit hops, which catch up first (ord is the hop's loop
// stamp); a frame the queue is too long for ends its journey here, its buffer
// back in the packet pool.
func (pt *Port) transmit(pkt *netproto.Packet, ord uint64) {
	pt.sw.loopSync(loopTransmit, ord)
	now := pt.sw.sim.Now()
	end, ok := pt.reserve(now, pkt.Len())
	if !ok {
		pt.TxDrops++
		pt.sw.trace.Emit(now, obs.KindDrop, pkt.Meta.UID, dropTx, int64(pt.ID), int64(pkt.Len()))
		pkt.Release()
		return
	}
	pt.serialize(pkt, now, end)
}

// serialize files the serialization-end event of a frame reserve booked to
// leave at end, under the stamps a transmit event run at tx gives it — tx is
// the clock when transmit calls, and lies egressLatency ahead of it when
// runEgress does.
func (pt *Port) serialize(pkt *netproto.Packet, tx, end netsim.Time) {
	sim := pt.sw.sim
	if pt.remote != nil {
		// Cross-LP path: perform txDone's bookkeeping now — the packet is
		// handed to the staging engine and must not be touched afterwards —
		// and credit TX counters with a local event at serialization end,
		// exactly when the sequential engine would. The job carries the UID
		// so the wire_tx trace record can still name the frame.
		sim.AtCallStamped(end, tx, runTxCountJob, pt.sw.jobN(pkt.Len(), pkt.Meta.UID, pt))
		pkt.Meta.EgressPs = int64(end)
		stripBridge(&pkt.Meta)
		pt.remote(pkt, end)
		return
	}
	j := pt.sw.job(pkt, pt)
	if pt.Loopback {
		j.ord = pt.sw.loopOrd()
	}
	sim.AtCallStamped(end, tx, runTxDoneJob, j)
}

// accounting reports whether a frame leaving egress for pt now is accounted
// at its counting far end instead of delivered (DESIGN.md §9.8): a far end
// that still takes frames, no trace on the switch, and frames or frameless
// copies already in flight to it, or a far end that only counts. A far end
// that stopped counting with either in flight fails their Arrive, so asking
// it again before the queue drains would change nothing.
func (pt *Port) accounting() bool {
	q := pt.far
	return q != nil && q.on && pt.remote == nil && pt.sw.trace == nil && (q.n > 0 || q.copies > 0 || q.end.Counting())
}

// account files a frame of n bytes whose serialization ends at end with the
// far end: nothing happens at serialization end or at the arrival but
// counting, so both are credited by a sync, and one tail event per port keeps
// the scheduler's clock running to the last arrival.
func (pt *Port) account(end netsim.Time, n int) {
	q := pt.far
	q.push(end, n)
	if !q.armed {
		q.armed = true
		pt.sw.sim.AtCall(end.Add(q.prop), runFarTail, pt)
	}
}

// farQueue is the frames a port has accounted to its counting far end and
// not yet credited in full, oldest first: a ring of (serialization end,
// length) with power-of-two capacity. The busy-until FIFO makes ends strictly
// increasing, and the cable delay is constant, so arrivals come in the same
// order, and the ring holds only the frames in flight since the last sync.
type farQueue struct {
	end  FarEnd
	prop netsim.Duration
	// on is whether frames leaving egress may still be accounted (SetPeer
	// turns it off; frames already queued are credited all the same).
	on bool
	// copies is the multicast copies replication sent towards the far end
	// without a frame that have not left egress yet (DESIGN.md §9.9).
	copies int
	buf    []farFrame
	head   int
	n      int
	sent   int  // frames from head whose serialization end is credited
	armed  bool // a tail event is pending
}

type farFrame struct {
	end netsim.Time
	n   int
}

func (q *farQueue) at(i int) *farFrame { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *farQueue) push(end netsim.Time, n int) {
	if q.n == len(q.buf) {
		grown := make([]farFrame, max(2*len(q.buf), 64))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	*q.at(q.n) = farFrame{end, n}
	q.n++
}

// sync credits pt's TX counters for every queued frame whose serialization
// ends at or before t, and the far end for every one that has arrived by t,
// dropping those from the queue.
func (q *farQueue) sync(pt *Port, t netsim.Time) {
	for ; q.sent < q.n; q.sent++ {
		f := q.at(q.sent)
		if f.end > t {
			break
		}
		pt.TxPackets++
		pt.TxBytes += uint64(f.n)
	}
	for q.n > 0 {
		f := q.at(0)
		at := f.end.Add(q.prop)
		if at > t {
			break
		}
		q.end.Arrive(at, f.n)
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
		q.sent--
	}
}

// runFarTail runs at the newest arrival queued when it was armed: it credits
// everything due and re-arms at the newest arrival still queued, so a drained
// Sim stops at the last arrival, as it does when every arrival is an event.
func runFarTail(a any) {
	pt := a.(*Port)
	q := pt.far
	q.armed = false
	q.sync(pt, pt.sw.sim.Now())
	if q.n > 0 {
		q.armed = true
		pt.sw.sim.AtCall(q.at(q.n-1).end.Add(q.prop), runFarTail, pt)
	}
}

// stripBridge removes the internal bridge header (template ID, replication
// metadata, trigger records), as the deparser does before a frame hits a real
// wire.
func stripBridge(m *netproto.Meta) {
	m.TemplateID = 0
	m.Replica = false
	m.ReplicaID = 0
	m.SeqID = 0
	m.Record = nil
}

// txDone runs when the last bit of pkt leaves the port (the scheduled end of
// serialization, so the current virtual time IS the egress timestamp).
func (pt *Port) txDone(pkt *netproto.Packet, ord uint64) {
	if pt.Loopback {
		// The wire-end order across loopback ports is the next pass's
		// ingress order: modelled wire ends ahead of this one go first.
		pt.sw.loopSync(loopTxDone, ord)
	}
	end := pt.sw.sim.Now()
	pt.TxPackets++
	pt.TxBytes += uint64(pkt.Len())
	pt.sw.trace.Emit(end, obs.KindWireTx, pkt.Meta.UID, "", int64(pt.ID), int64(pkt.Len()))
	pkt.Meta.EgressPs = int64(end)
	if pt.Loopback {
		pt.Receive(pkt)
		return
	}
	stripBridge(&pkt.Meta)
	if pt.peer != nil {
		pt.peer(pkt, end)
	}
}

// Receive accepts a frame arriving on the wire now. The MAC stamps the
// ingress timestamp and hands the frame to the ingress pipeline after the
// fixed ingress latency.
func (pt *Port) Receive(pkt *netproto.Packet) {
	sim := pt.sw.sim
	pt.RxPackets++
	pt.RxBytes += uint64(pkt.Len())
	pkt.Meta.IngressPs = int64(sim.Now())
	pkt.Meta.InPort = pt.ID
	j := pt.sw.job(pkt, nil)
	if pt.Loopback {
		j.ord = pt.sw.loopOrd()
	}
	sim.AfterCall(ingressLatency, runIngressJob, j)
}

// Deliver is Receive under the name the testbed wiring uses for any frame
// destination (switch port or device interface).
func (pt *Port) Deliver(pkt *netproto.Packet) { pt.Receive(pkt) }

// DeliverLookahead is the calibrated latency between a frame's wire arrival
// and the first state-bearing event its delivery schedules: the MAC +
// ingress-pipeline entry latency. A partitioned testbed adds it to the
// cross-LP lookahead of any channel terminating at a switch port, widening
// synchronization windows by ~17x over the bare wire+cable bound.
func (pt *Port) DeliverLookahead() netsim.Duration {
	return ingressLatency
}

// TransmitLookahead is how long before a frame reaches the MAC a partitioned
// port hands it to its remote hook: the fixed egress + MAC latency, which the
// switch computes through instead of scheduling (DESIGN.md §9.7). A
// partitioned testbed adds it to the cross-LP lookahead of any channel that
// starts at a switch port, and finds the sequential transmit time of a frame
// its hook is handed this far ahead of the clock.
func (pt *Port) TransmitLookahead() netsim.Duration {
	return egressLatency
}

// CreditRX credits the port's RX counters for one received frame of the
// given length. Receive does this inline at wire arrival; the partitioned
// cross-LP path calls it separately (testbed's remote-arrival handler, or
// the engine's boundary flush when a RunUntil deadline lands between a
// frame's arrival and its deferred pipeline entry) so RX counters sampled
// at any run boundary match the sequential engine bit for bit.
func (pt *Port) CreditRX(frameLen int) {
	pt.RxPackets++
	pt.RxBytes += uint64(frameLen)
}

// DeliverDeferred is the cross-LP delivery entry point: it performs arrival
// bookkeeping (with the original arrival timestamp) and enters the ingress
// pipeline directly. The caller must invoke it on the owning LP's clock at
// arrival + DeliverLookahead() — the instant Receive's deferred ingress
// event would have run — and must credit RX counters itself via CreditRX,
// which the sequential engine makes observable at the arrival instant.
// Register state, digests and every downstream timestamp are unaffected
// (the ingress pass itself happens at the same instant in both engines).
func (pt *Port) DeliverDeferred(pkt *netproto.Packet, arrival netsim.Time) {
	pkt.Meta.IngressPs = int64(arrival)
	pkt.Meta.InPort = pt.ID
	pt.sw.ingress(pkt, 0)
}
