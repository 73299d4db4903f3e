package asic

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// Port is a switch front-panel or internal port. It serializes frames at the
// port rate (a busy-until model equivalent to a FIFO queue) and delivers them
// to the attached sink — a cable towards another device, or the port's own
// ingress when in loopback mode (§6.1's recirculation-via-loopback
// technique).
type Port struct {
	sw   *Switch
	ID   int
	Gbps float64

	// Loopback, when set, wires TX straight back into this port's RX,
	// turning it into an extra recirculation path. Flip it with
	// Switch.SetLoopback, which refuses a partitioned port.
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
}

// DefaultMaxBacklog approximates Tofino's per-port share of packet buffer:
// at 100 Gbps, 50 us of backlog is ~625 KB.
const DefaultMaxBacklog = 50 * netsim.Microsecond

// SetPeer attaches the frame sink called at serialization end.
func (pt *Port) SetPeer(fn func(pkt *netproto.Packet, at netsim.Time)) { pt.peer = fn }

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

// transmit is the MAC hop as an event, run when the frame reaches the MAC. Two
// kinds of frame take it (DESIGN.md §9.7): every frame on a loopback port,
// whose busy-until chain is shared with the loop model's transmit hops (ord is
// the hop's loop stamp), and a front-panel frame runEgress found the queue
// too long for — txBusyUntil never moves back, so it is still too long now,
// and the frame's journey ends here, its buffer back in the packet pool.
func (pt *Port) transmit(pkt *netproto.Packet, ord uint64) {
	if pt.Loopback {
		pt.sw.loopSync(loopTransmit, ord)
	}
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

// Utilization returns transmitted bits / (rate × elapsed) over the given
// virtual-time window, a convenience for throughput reports.
func (pt *Port) Utilization(window netsim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	bits := float64(pt.TxBytes+uint64(pt.TxPackets)*netproto.WireOverheadBytes) * 8
	return bits / (pt.Gbps * window.Nanoseconds())
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
