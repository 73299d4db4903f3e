package asic

import (
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// RecircPortBase is the port-ID space for internal recirculation paths,
// addressed by the `recirculate` primitive.
const RecircPortBase = 1000

// CPUPortID is the PCIe packet port between switching ASIC and switch CPU.
const CPUPortID = 2000

// Config describes a switch to build.
type Config struct {
	Name string
	Sim  *netsim.Sim
	// PortGbps gives per-front-panel-port rates; index is port ID.
	PortGbps []float64
	// RecircPaths is the number of internal recirculation paths
	// (default 1); each holds its share of the templates (§6.1).
	RecircPaths int
	// Seed drives the switch's jitter streams.
	Seed int64
}

// Switch is the simulated programmable switch: front-panel ports, one
// ingress and one egress pipeline, a traffic manager with a multicast
// engine, recirculation paths, and a digest engine towards the switch CPU.
type Switch struct {
	Name    string
	sim     *netsim.Sim
	ports   []*Port
	recirc  []*Port
	Ingress *Pipeline
	Egress  *Pipeline
	Mcast   *McastEngine

	rngLoop  *netsim.RNG // recirculation-path jitter
	rngMcast *netsim.RNG // replication-engine jitter

	// DigestOut receives generate_digest messages on the switch-CPU side
	// after the PCIe channel's service delay. The data slice is pooled: it
	// is valid only for the duration of the call, and receivers that retain
	// digest contents must copy them out.
	DigestOut func(data []byte, at netsim.Time)

	digestBusyUntil netsim.Time
	digestQueue     digestRing
	digestDraining  bool
	// digestFree recycles delivered digest-message buffers back into
	// emitDigest, making the sustained digest path allocation-free.
	digestFree [][]byte

	// Hot-path object pools (see pool.go). Single-threaded with the Sim.
	phvFree []*PHV
	jobFree []*pktJob

	// copyFramed is replicate's scratch: which copies of the group being
	// replicated need a frame.
	copyFramed []bool

	// trace, when non-nil, receives per-packet lifecycle records (see
	// observe.go for the emission-point contract).
	trace *obs.Trace

	// loop, once an idle oracle has been installed, holds the template
	// copies whose recirculation is accounted instead of scheduled
	// (loopmodel.go).
	loop *loopModel

	// The last multicast frame length and its replication delay (the float
	// formula plus rounding, once per length instead of once per copy).
	mcastLen int
	mcastDur netsim.Duration

	// Counters.
	PipelineDrops uint64 // packets dropped by pipeline decision
	NoRouteDrops  uint64 // packets leaving ingress with no destination
	DigestsSent   uint64
	DigestDrops   uint64

	uid uint64
}

// Digest-channel calibration (Fig. 16a): goodput grows linearly with message
// size and reaches ~4.5 Mbps at 256-byte messages, i.e. the channel is
// message-rate-bound at ~2200 messages/s.
const (
	digestServiceTime = 455 * netsim.Microsecond
	digestMaxQueue    = 16384
)

// New builds a switch from cfg.
func New(cfg Config) *Switch {
	if cfg.Sim == nil {
		panic("asic: Config.Sim is required")
	}
	if cfg.RecircPaths == 0 {
		cfg.RecircPaths = 1
	}
	sw := &Switch{
		Name:     cfg.Name,
		sim:      cfg.Sim,
		Ingress:  NewPipeline("ingress"),
		Egress:   NewPipeline("egress"),
		Mcast:    NewMcastEngine(),
		rngLoop:  netsim.NewRNG(cfg.Seed, cfg.Name+"/recirc"),
		rngMcast: netsim.NewRNG(cfg.Seed, cfg.Name+"/mcast"),
	}
	for i, g := range cfg.PortGbps {
		sw.ports = append(sw.ports, &Port{sw: sw, ID: i, Gbps: g})
	}
	for i := 0; i < cfg.RecircPaths; i++ {
		sw.recirc = append(sw.recirc, &Port{
			sw: sw, ID: RecircPortBase + i, Gbps: RecircGbps, Loopback: true,
		})
	}
	return sw
}

// Sim returns the simulation the switch is bound to.
func (sw *Switch) Sim() *netsim.Sim { return sw.sim }

// Port returns a front-panel or recirculation port by ID, its counters
// brought up to the clock first: the loop model may be holding passes a
// recirculation port has not accounted yet, and a front-panel port may hold
// frames it has accounted to its far end and not yet credited (DESIGN.md
// §9.8).
func (sw *Switch) Port(id int) *Port {
	if id >= RecircPortBase {
		sw.SyncLoop()
	}
	pt := sw.port(id)
	if pt != nil {
		pt.Sync()
	}
	return pt
}

// port is Port for the switch's own hot paths, which sync the loop model at
// their own, finer points.
func (sw *Switch) port(id int) *Port {
	if id >= RecircPortBase && id < RecircPortBase+len(sw.recirc) {
		return sw.recirc[id-RecircPortBase]
	}
	if id >= 0 && id < len(sw.ports) {
		return sw.ports[id]
	}
	return nil
}

// NumPorts returns the front-panel port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// RecircPaths returns the number of internal recirculation paths.
func (sw *Switch) RecircPaths() int { return len(sw.recirc) }

// NextUID returns a fresh packet UID.
func (sw *Switch) NextUID() uint64 {
	sw.uid++
	return sw.uid
}

// InjectFromCPU delivers a CPU-built packet (e.g. a template packet) into
// the ingress pipeline, as the PCIe packet interface does. The injection
// takes effect after the PCIe transfer delay.
func (sw *Switch) InjectFromCPU(pkt *netproto.Packet) {
	const pcieDelay = 2 * netsim.Microsecond
	pkt.Meta.UID = sw.NextUID()
	sw.sim.AfterCall(pcieDelay, runInjectJob, sw.job(pkt, nil))
}

// ingress is the ingress hop of any packet: modelled loop passes the
// unelided scheduler would have run before this one happen first (ord is the
// hop's loop stamp, 0 for a packet that did not arrive on a loopback port).
func (sw *Switch) ingress(pkt *netproto.Packet, ord uint64) {
	sw.loopSync(loopIngress, ord)
	sw.ingressPass(pkt)
}

// ingressPass runs the ingress pipeline and dispatches the PHV through the
// traffic manager. Called at ingress-pipeline completion time. The switch
// owns pkt for the duration of the pass: packets whose journey ends here
// (drops) are released back to the packet pool.
func (sw *Switch) ingressPass(pkt *netproto.Packet) {
	sw.trace.Emit(sw.sim.Now(), obs.KindParse, pkt.Meta.UID, "", int64(pkt.Meta.InPort), int64(pkt.Len()))
	phv := sw.acquirePHV(pkt)
	phv.Trace, phv.TraceAt = sw.trace, sw.sim.Now()
	sw.Ingress.Run(phv)
	pkt.Meta = phv.Meta // metadata edits travel with the packet
	sw.takeDigest(phv)
	if phv.Drop {
		sw.PipelineDrops++
		sw.trace.Emit(phv.TraceAt, obs.KindDrop, pkt.Meta.UID, dropPipeline, 0, int64(pkt.Len()))
		sw.releasePHV(phv)
		pkt.Release()
		return
	}
	switch {
	case phv.McastGroup > 0:
		sw.replicate(phv)
		sw.releasePHV(phv)
	case phv.Recirculate:
		phv.settle()
		port := sw.recircPortFor(phv)
		sw.trace.Emit(phv.TraceAt, obs.KindRecirculate, pkt.Meta.UID, "", int64(port.ID), 0)
		sw.toEgress(phv, port, tmLatency)
	case phv.EgressPort >= 0:
		phv.settle()
		port := sw.port(phv.EgressPort)
		sw.toEgress(phv, port, tmLatency)
	default:
		sw.NoRouteDrops++
		sw.trace.Emit(phv.TraceAt, obs.KindDrop, pkt.Meta.UID, dropNoRoute, 0, int64(pkt.Len()))
		sw.releasePHV(phv)
		pkt.Release()
	}
}

// recircPortFor picks the recirculation path for a PHV. Templates spread
// across paths by template ID so extra loopback paths extend capacity.
func (sw *Switch) recircPortFor(phv *PHV) *Port {
	if len(sw.recirc) == 1 {
		return sw.recirc[0]
	}
	return sw.recirc[phv.Meta.TemplateID%len(sw.recirc)]
}

// replicate hands the PHV to the multicast engine: one copy per CopySpec,
// each delayed by the replication-engine latency. The replicated PHV is
// settled once, and every copy's egress PHV starts from its headers. A copy
// bound for a far end that only counts carries no frame (DESIGN.md §9.9);
// the original frame goes to the last copy that needs bytes, earlier ones
// get a clone, and when none does the original's journey ends here.
func (sw *Switch) replicate(phv *PHV) {
	pkt := phv.Pkt
	copies := sw.Mcast.Copies(phv.McastGroup)
	if copies == nil {
		sw.NoRouteDrops++
		sw.trace.Emit(phv.TraceAt, obs.KindDrop, pkt.Meta.UID, dropNoRoute, 0, int64(pkt.Len()))
		pkt.Release()
		return
	}
	phv.settle()
	framed, last := sw.copyFramed[:0], -1
	for i, c := range copies {
		pt := sw.port(c.Port)
		framed = append(framed, pt != nil && !pt.accounting())
		if framed[i] {
			last = i
		}
	}
	sw.copyFramed = framed
	base := tmLatency
	mcast := sw.mcastDelay(phv.FrameLen)
	for i, c := range copies {
		var cp *PHV
		if framed[i] {
			dup := pkt
			if i != last {
				dup = pkt.Clone()
			}
			dup.Meta.UID = sw.NextUID()
			dup.Meta.Replica = true
			dup.Meta.ReplicaID = c.Rid
			cp = sw.acquireCopy(phv, dup)
			cp.Meta = dup.Meta
		} else {
			cp = sw.acquireCopy(phv, nil)
			m := &cp.Meta
			*m = phv.Meta
			m.UID = sw.NextUID()
			m.Replica = true
			m.ReplicaID = c.Rid
			if m.Record != nil {
				m.Record = append([]uint64(nil), m.Record...)
			}
		}
		sw.trace.Emit(phv.TraceAt, obs.KindMcastCopy, cp.Meta.UID, "", int64(c.Port), int64(c.Rid))
		d := base
		if c.Rid != 0 {
			// Replication-engine latency applies to generated copies;
			// the rid-0 copy is the original continuing its path
			// (otherwise the recirculation loop could not sustain the
			// paper's 570 ns RTT while firing every arrival).
			d += mcast + sw.rngMcast.Jitter(McastJitterSpreadNs*netsim.Nanosecond)
		}
		sw.toEgress(cp, sw.port(c.Port), d)
	}
	if last < 0 {
		pkt.Release()
	}
}

// mcastDelay is netsim.Ns(McastDelayNs(frameLen)), remembered for the last
// frame length (every copy of one replication shares it, and a template
// replicates the same frame over and over).
func (sw *Switch) mcastDelay(frameLen int) netsim.Duration {
	if frameLen != sw.mcastLen {
		sw.mcastLen, sw.mcastDur = frameLen, netsim.Ns(McastDelayNs(frameLen))
	}
	return sw.mcastDur
}

// toEgress schedules the egress pipeline for the packet phv carries (none for
// a frameless multicast copy) on port after tmDelay, the PHV's controls
// reset — or, for an idle template's copy bound for its recirculation path,
// hands the hop to the loop model.
func (sw *Switch) toEgress(phv *PHV, port *Port, tmDelay netsim.Duration) {
	pkt := phv.Pkt
	phv.reset()
	if port == nil {
		sw.NoRouteDrops++
		sw.trace.Emit(sw.sim.Now(), obs.KindDrop, phv.Meta.UID, dropNoRoute, 0, int64(phv.FrameLen))
		sw.releasePHV(phv)
		pkt.Release()
		return
	}
	sw.trace.Emit(sw.sim.Now(), obs.KindTMEnqueue, phv.Meta.UID, "", int64(port.ID), int64(phv.FrameLen))
	if port.Loopback && sw.loop != nil && sw.loop.absorb(pkt, port, tmDelay) {
		sw.releasePHV(phv)
		return
	}
	if pkt == nil {
		port.far.copies++
	}
	j := sw.job(pkt, port)
	j.phv = phv
	if port.Loopback {
		j.ord = sw.loopOrd()
	}
	sw.sim.AfterCall(tmDelay, runEgressJob, j)
}

// runEgress executes the egress pipeline for pkt bound to port and sends the
// frame on through the MAC. Called at traffic-manager completion time, with
// the PHV toEgress gave the hop, or none for a hop the loop model handed
// back. On a loopback port the hop shares the loop-jitter stream with the
// loop model, which therefore catches up to it first. A frameless multicast
// copy (pkt nil) runs the pipeline on its headers (DESIGN.md §9.9).
func (sw *Switch) runEgress(pkt *netproto.Packet, phv *PHV, port *Port, ord uint64) {
	if port.Loopback {
		sw.loopSync(loopEgress, ord)
	}
	if phv == nil {
		phv = sw.acquirePHV(pkt)
	}
	now := sw.sim.Now()
	n := phv.FrameLen
	sw.trace.Emit(now, obs.KindTMDequeue, phv.Meta.UID, "", int64(port.ID), int64(n))
	phv.Trace, phv.TraceAt = sw.trace, now
	phv.EgressPort = port.ID
	sw.Egress.Run(phv)
	if pkt != nil {
		pkt.Meta = phv.Meta
	} else {
		port.far.copies--
	}
	sw.takeDigest(phv)
	uid := phv.Meta.UID
	if phv.Drop {
		sw.PipelineDrops++
		sw.trace.Emit(now, obs.KindDrop, uid, dropPipeline, 1, int64(n))
		sw.releasePHV(phv)
		pkt.Release()
		return
	}
	if port.Loopback {
		// Calibrated loop: apply the fractional correction plus bounded
		// jitter so measured RTTs match Fig. 14a. The jitter makes transmit
		// order differ from egress order, so the MAC hop stays an event.
		phv.Deparse()
		sw.releasePHV(phv)
		j := sw.job(pkt, port)
		j.ord = sw.loopOrd()
		sw.sim.AfterCall(loopEgressLatency+sw.rngLoop.Jitter(loopJitter), runTransmitJob, j)
		return
	}
	// The front-panel MAC step (DESIGN.md §9.7): the frame reaches the MAC a
	// constant egressLatency from now, behind every frame that left egress
	// before it, so the serializer's booking is known already. It ends the
	// frame's journey one of three ways.
	tx := now.Add(egressLatency)
	end, ok := port.reserve(tx, n)
	switch {
	case !ok:
		// Tail drop, counted when the frame reaches the MAC. A framed
		// frame still deparses: a traced run records that.
		if pkt != nil {
			phv.Deparse()
		}
		sw.releasePHV(phv)
		pkt.Release()
		sw.sim.AtCall(tx, runTxDropJob, sw.jobN(n, uid, port))
	case pkt == nil || port.accounting():
		// Nothing reads the bytes: accounted at the counting far end.
		sw.releasePHV(phv)
		pkt.Release()
		port.account(end, n)
	default:
		phv.Deparse()
		sw.releasePHV(phv)
		port.serialize(pkt, tx, end)
	}
}

// DigestQueueLen reports messages currently queued on the digest channel
// (the pipeline-visible backpressure signal a learn filter provides).
func (sw *Switch) DigestQueueLen() int { return sw.digestQueue.Len() }

// takeDigest consumes a PHV's digest attachment at the end of its pipeline
// pass: the message is copied onto the digest channel, and the producer's
// buffer is its own again.
func (sw *Switch) takeDigest(phv *PHV) {
	if phv.DigestData == nil {
		return
	}
	sw.trace.Emit(phv.TraceAt, obs.KindDigest, phv.Meta.UID, "", int64(len(phv.DigestData)), 0)
	sw.emitDigest(phv.DigestData)
	phv.DigestData = nil
}

// emitDigest queues a generate_digest message on the PCIe channel towards
// the switch CPU. The channel is message-rate bound; overflow drops.
func (sw *Switch) emitDigest(data []byte) {
	if sw.DigestOut == nil {
		return
	}
	if sw.digestQueue.Len() >= digestMaxQueue {
		sw.DigestDrops++
		return
	}
	var msg []byte
	if n := len(sw.digestFree); n > 0 {
		msg = append(sw.digestFree[n-1][:0], data...)
		sw.digestFree[n-1] = nil
		sw.digestFree = sw.digestFree[:n-1]
	} else {
		msg = append([]byte(nil), data...)
	}
	sw.digestQueue.Push(msg)
	sw.scheduleDigest()
}

// recycleDigest returns a delivered message buffer to the freelist once the
// DigestOut callback has returned (the receiver's retention window is the
// call itself — see the DigestOut contract).
func (sw *Switch) recycleDigest(msg []byte) {
	sw.digestFree = append(sw.digestFree, msg)
}

// scheduleDigest arms the next channel delivery if one is not in flight.
func (sw *Switch) scheduleDigest() {
	if sw.digestDraining || sw.digestQueue.Len() == 0 {
		return
	}
	sw.digestDraining = true
	now := sw.sim.Now()
	start := sw.digestBusyUntil
	if start < now {
		start = now
	}
	end := start.Add(digestServiceTime)
	sw.digestBusyUntil = end
	sw.sim.AtCall(end, runDigestDrain, sw)
}

// runDigestDrain delivers the oldest queued digest at channel-service time.
func runDigestDrain(a any) {
	sw := a.(*Switch)
	sw.digestDraining = false
	if sw.digestQueue.Len() == 0 {
		return // flushed in the meantime
	}
	sw.WakeLoop() // room on the channel may let a waiting digest attach
	msg := sw.digestQueue.Pop()
	sw.DigestsSent++
	sw.DigestOut(msg, sw.sim.Now())
	sw.recycleDigest(msg)
	sw.scheduleDigest()
}

// FlushDigests synchronously delivers every queued digest message — the
// switch CPU reading out the learn buffer at collection time.
func (sw *Switch) FlushDigests() {
	sw.WakeLoop()
	now := sw.sim.Now()
	for sw.digestQueue.Len() > 0 {
		msg := sw.digestQueue.Pop()
		sw.DigestsSent++
		if sw.DigestOut != nil {
			sw.DigestOut(msg, now)
		}
		sw.recycleDigest(msg)
	}
}
