package asic

import (
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/obs"
)

// This file holds the switch's hot-path object pools. A Switch is bound to a
// single-threaded Sim, so plain free-list slices suffice — no locking, and
// (unlike sync.Pool) no cross-experiment sharing that could perturb
// determinism when experiment suites run in parallel.
//
// Pooling invariants (see DESIGN.md "Pooling invariants"):
//   - A PHV lives from acquirePHV to releasePHV within one pipeline pass;
//     processors must not retain a *PHV past their Process call.
//   - A pktJob lives from job() to putJob() across exactly one scheduled
//     callback.
//   - A Packet is released only by its exclusive owner, on paths where the
//     packet's journey ends inside the switch (pipeline drop, no-route drop,
//     TX tail-drop, the replaced original of a multicast replication).
//     Delivered packets belong to the receiver and are never released here.

// acquirePHV returns a parsed PHV for pkt, reusing pooled storage (including
// the decoded-layer list capacity) when available.
func (sw *Switch) acquirePHV(pkt *netproto.Packet) *PHV {
	if n := len(sw.phvFree); n > 0 {
		p := sw.phvFree[n-1]
		sw.phvFree = sw.phvFree[:n-1]
		p.init(pkt)
		return p
	}
	return NewPHV(pkt)
}

// releasePHV recycles a PHV after its pipeline pass. The caller must not
// touch the PHV afterwards. An unconsumed digest attachment (a path that
// released the PHV without reaching takeDigest) is returned to its producer
// here so pooled buffers are never left dangling.
func (sw *Switch) releasePHV(p *PHV) {
	if p.DigestData != nil && p.DigestFree != nil {
		p.DigestFree(p.DigestData)
	}
	p.Pkt = nil
	p.Meta = netproto.Meta{}
	p.DigestData = nil
	p.DigestFree = nil
	sw.phvFree = append(sw.phvFree, p)
}

// pktJob carries the arguments of one scheduled packet hop (traffic-manager
// delay, egress delay, wire serialization, ingress latency) so hops schedule
// through netsim.AtCall without allocating a capturing closure per packet.
type pktJob struct {
	sw   *Switch
	pkt  *netproto.Packet
	port *Port
	// n and uid carry a byte count and packet UID for jobs that outlive
	// their packet (the packet is already handed across an LP boundary when
	// the job fires).
	n   int
	uid uint64
	// ord is the hop's loop stamp when it runs on a loopback port next to
	// an idle-loop model (loopmodel.go); 0 otherwise.
	ord uint64
}

// job builds a pooled hop descriptor.
func (sw *Switch) job(pkt *netproto.Packet, port *Port) *pktJob {
	if n := len(sw.jobFree); n > 0 {
		j := sw.jobFree[n-1]
		sw.jobFree = sw.jobFree[:n-1]
		j.pkt, j.port = pkt, port
		return j
	}
	return &pktJob{sw: sw, pkt: pkt, port: port}
}

// jobN builds a pooled descriptor carrying only a byte count and packet UID
// — used for TX counter credits on cross-LP links, where the frame itself
// has already been staged to the remote LP.
func (sw *Switch) jobN(n int, uid uint64, port *Port) *pktJob {
	j := sw.job(nil, port)
	j.n, j.uid = n, uid
	return j
}

// putJob recycles a hop descriptor at the start of its callback.
func (sw *Switch) putJob(j *pktJob) {
	j.pkt, j.port, j.n, j.uid, j.ord = nil, nil, 0, 0, 0
	sw.jobFree = append(sw.jobFree, j)
}

// Scheduled-callback trampolines. Static funcs: passing them to AtCall
// allocates nothing.

// runInjectJob completes a CPU packet injection after the PCIe delay.
func runInjectJob(a any) {
	j := a.(*pktJob)
	sw, pkt := j.sw, j.pkt
	sw.putJob(j)
	pkt.Meta.IngressPs = int64(sw.sim.Now())
	pkt.Meta.InPort = CPUPortID
	sw.ingress(pkt, 0)
}

// runIngressJob enters the ingress pipeline after the MAC ingress latency.
func runIngressJob(a any) {
	j := a.(*pktJob)
	sw, pkt, ord := j.sw, j.pkt, j.ord
	sw.putJob(j)
	sw.ingress(pkt, ord)
}

// runEgressJob runs the egress pipeline after the traffic-manager delay.
func runEgressJob(a any) {
	j := a.(*pktJob)
	sw, pkt, port, ord := j.sw, j.pkt, j.port, j.ord
	sw.putJob(j)
	sw.runEgress(pkt, port, ord)
}

// runTransmitJob is the MAC hop as an event, after the egress+MAC latency: a
// loopback port's frame, or a front-panel frame due to be tail-dropped (every
// other front-panel frame goes from runEgress straight to its serialization
// end — Port.serialize).
func runTransmitJob(a any) {
	j := a.(*pktJob)
	pkt, port, ord := j.pkt, j.port, j.ord
	j.sw.putJob(j)
	port.transmit(pkt, ord)
}

// runTxCountJob credits TX counters at serialization end for frames staged
// to a remote LP (see Port.serialize's remote path). It is the cross-LP twin
// of txDone's wire_tx trace record: both are filed by serialize for the
// serialization-end instant under the same stamps, so the record lands in
// the same trace slot under either engine.
func runTxCountJob(a any) {
	j := a.(*pktJob)
	sw, port, n, uid := j.sw, j.port, j.n, j.uid
	sw.putJob(j)
	port.TxPackets++
	port.TxBytes += uint64(n)
	sw.trace.Emit(sw.sim.Now(), obs.KindWireTx, uid, "", int64(port.ID), int64(n))
}

// runTxDoneJob fires when the last bit of a frame leaves the port.
func runTxDoneJob(a any) {
	j := a.(*pktJob)
	pkt, port, ord := j.pkt, j.port, j.ord
	j.sw.putJob(j)
	port.txDone(pkt, ord)
}

// digestRing is a growable circular queue of digest messages. The previous
// implementation popped with digestQueue = digestQueue[1:], which keeps the
// whole backing array reachable for as long as any message remains — a
// retention leak under sustained digest load. The ring reuses its slots
// instead (same discipline as stateless.FIFO's front/rear counters).
type digestRing struct {
	buf  [][]byte
	head int
	n    int
}

// Len reports queued messages.
func (r *digestRing) Len() int { return r.n }

// Push appends a message, growing the ring when full.
func (r *digestRing) Push(m []byte) {
	if r.n == len(r.buf) {
		grown := make([][]byte, max(2*len(r.buf), 64))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = m
	r.n++
}

// Pop removes and returns the oldest message, clearing its slot so the ring
// holds no reference to delivered data.
func (r *digestRing) Pop() []byte {
	if r.n == 0 {
		return nil
	}
	m := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return m
}
