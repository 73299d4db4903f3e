package asic

import (
	"fmt"

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
	// (default 1). §6.1's loopback trick adds more by flipping front-
	// panel ports into loopback mode instead.
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

// Port returns a front-panel, recirculation, or loopback port by ID. A
// recirculation port's counters are brought up to the clock first (the loop
// model may be holding passes it has not accounted yet).
func (sw *Switch) Port(id int) *Port {
	if id >= RecircPortBase {
		sw.SyncLoop()
	}
	return sw.port(id)
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

// SetLoopback flips a front-panel port into loopback mode, trading its
// bandwidth for extra recirculation capacity (§6.1). A port cabled across a
// partition (Port.SetRemote) cannot loop back.
func (sw *Switch) SetLoopback(portID int, on bool) error {
	p := sw.port(portID)
	if p == nil || portID >= RecircPortBase {
		return fmt.Errorf("asic: no front-panel port %d", portID)
	}
	if on && p.remote != nil {
		return fmt.Errorf("asic: port %d is partitioned onto another LP and cannot loop back", portID)
	}
	p.Loopback = on
	return nil
}

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
		phv.Deparse()
		port := sw.recircPortFor(phv)
		sw.trace.Emit(phv.TraceAt, obs.KindRecirculate, pkt.Meta.UID, "", int64(port.ID), 0)
		sw.releasePHV(phv)
		sw.toEgress(pkt, port, tmLatency)
	case phv.EgressPort >= 0:
		phv.Deparse()
		port := sw.port(phv.EgressPort)
		sw.releasePHV(phv)
		sw.toEgress(pkt, port, tmLatency)
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
// each delayed by the replication-engine latency. Every copy — including the
// rid-0 continuation — is a fresh clone; the original packet's journey ends
// here and its buffer returns to the pool.
func (sw *Switch) replicate(phv *PHV) {
	pkt := phv.Pkt
	copies := sw.Mcast.Copies(phv.McastGroup)
	if copies == nil {
		sw.NoRouteDrops++
		sw.trace.Emit(phv.TraceAt, obs.KindDrop, pkt.Meta.UID, dropNoRoute, 0, int64(pkt.Len()))
		pkt.Release()
		return
	}
	phv.Deparse()
	base := tmLatency
	mcast := sw.mcastDelay(pkt.Len())
	for _, c := range copies {
		dup := pkt.Clone()
		dup.Meta.UID = sw.NextUID()
		dup.Meta.Replica = true
		dup.Meta.ReplicaID = c.Rid
		sw.trace.Emit(phv.TraceAt, obs.KindMcastCopy, dup.Meta.UID, "", int64(c.Port), int64(c.Rid))
		d := base
		if c.Rid != 0 {
			// Replication-engine latency applies to generated copies;
			// the rid-0 copy is the original continuing its path
			// (otherwise the recirculation loop could not sustain the
			// paper's 570 ns RTT while firing every arrival).
			d += mcast + sw.rngMcast.Jitter(McastJitterSpreadNs*netsim.Nanosecond)
		}
		sw.toEgress(dup, sw.port(c.Port), d)
	}
	pkt.Release()
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

// toEgress schedules the egress pipeline for pkt on port after tmDelay — or,
// for an idle template's copy bound for its recirculation path, hands the
// hop to the loop model.
func (sw *Switch) toEgress(pkt *netproto.Packet, port *Port, tmDelay netsim.Duration) {
	if port == nil {
		sw.NoRouteDrops++
		sw.trace.Emit(sw.sim.Now(), obs.KindDrop, pkt.Meta.UID, dropNoRoute, 0, int64(pkt.Len()))
		pkt.Release()
		return
	}
	sw.trace.Emit(sw.sim.Now(), obs.KindTMEnqueue, pkt.Meta.UID, "", int64(port.ID), int64(pkt.Len()))
	if port.Loopback && sw.loop != nil && sw.loop.absorb(pkt, port, tmDelay) {
		return
	}
	j := sw.job(pkt, port)
	if port.Loopback {
		j.ord = sw.loopOrd()
	}
	sw.sim.AfterCall(tmDelay, runEgressJob, j)
}

// runEgress executes the egress pipeline for pkt bound to port and sends the
// frame on through the MAC. Called at traffic-manager completion time. On a
// loopback port the hop shares the loop-jitter stream with the loop model,
// which therefore catches up to it first.
func (sw *Switch) runEgress(pkt *netproto.Packet, port *Port, ord uint64) {
	if port.Loopback {
		sw.loopSync(loopEgress, ord)
	}
	sw.trace.Emit(sw.sim.Now(), obs.KindTMDequeue, pkt.Meta.UID, "", int64(port.ID), int64(pkt.Len()))
	phv := sw.acquirePHV(pkt)
	phv.Trace, phv.TraceAt = sw.trace, sw.sim.Now()
	phv.EgressPort = port.ID
	sw.Egress.Run(phv)
	pkt.Meta = phv.Meta
	sw.takeDigest(phv)
	if phv.Drop {
		sw.PipelineDrops++
		sw.trace.Emit(phv.TraceAt, obs.KindDrop, pkt.Meta.UID, dropPipeline, 1, int64(pkt.Len()))
		sw.releasePHV(phv)
		pkt.Release()
		return
	}
	phv.Deparse()
	sw.releasePHV(phv)
	if port.Loopback {
		// Calibrated loop: apply the fractional correction plus bounded
		// jitter so measured RTTs match Fig. 14a. The jitter makes transmit
		// order differ from egress order, so the MAC hop stays an event.
		j := sw.job(pkt, port)
		j.ord = sw.loopOrd()
		sw.sim.AfterCall(loopEgressLatency+sw.rngLoop.Jitter(loopJitter), runTransmitJob, j)
		return
	}
	// The MAC hop is arithmetic (DESIGN.md §9.7): a front-panel frame reaches
	// the MAC a constant egressLatency from now, behind every frame that left
	// egress before it and ahead of every one that will, so the serializer
	// booking the transmit event would make is known already. Only a tail
	// drop has something left to do at that instant.
	tx := sw.sim.Now().Add(egressLatency)
	if end, ok := port.reserve(tx, pkt.Len()); ok {
		port.serialize(pkt, tx, end)
		return
	}
	sw.sim.AtCall(tx, runTransmitJob, sw.job(pkt, port))
}

// DigestQueueLen reports messages currently queued on the digest channel
// (the pipeline-visible backpressure signal a learn filter provides).
func (sw *Switch) DigestQueueLen() int { return sw.digestQueue.Len() }

// takeDigest consumes a PHV's digest attachment at end of pipeline pass:
// the message is copied onto the digest channel, then the producer's buffer
// is handed back through its DigestFree callback. This is the one point a
// pooled attachment buffer is provably done with — producers must not infer
// consumption from later pipeline activity.
func (sw *Switch) takeDigest(phv *PHV) {
	if phv.DigestData == nil {
		return
	}
	sw.trace.Emit(phv.TraceAt, obs.KindDigest, phv.Meta.UID, "", int64(len(phv.DigestData)), 0)
	sw.emitDigest(phv.DigestData)
	if phv.DigestFree != nil {
		phv.DigestFree(phv.DigestData)
	}
	phv.DigestData = nil
	phv.DigestFree = nil
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
