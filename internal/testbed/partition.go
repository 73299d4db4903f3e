package testbed

import (
	"fmt"
	"sync"

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
	// runs are the cables from a switch port to a sink on another LP.
	runs []*runChannel
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
	// A sink's mode is read here, with every LP at rest: its port reads the
	// snapshot during the run, never the sink (DESIGN.md §10.6).
	for _, c := range p.runs {
		c.counting = c.sink.counting()
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
		if i, ok := dst.(*Iface); ok && i.sink != nil {
			c := &runChannel{sink: i.sink, src: ss, dst: ds, prop: propagation}
			x.SetFarEnd(c, propagation)
			ds.OnBoundary(c.sync)
			i.sink.feeds = append(i.sink.feeds, c.sync)
			p.runs = append(p.runs, c)
		}
	}
}

// runChannel is the port -> sink half of a partitioned cable, as the port's
// counting far end (asic.FarEnd; DESIGN.md §10.6). The port hands it each
// accounted frame's arrival at egress end; it gathers the arrivals of one
// sender epoch into one arrivalRun, which crosses as one message stamped
// with its first arrival, and on the sink's LP credits each arrival once the
// clock reaches it, as the sink's own receive would.
type runChannel struct {
	sink     *Sink
	src, dst *netsim.Sim
	prop     netsim.Duration
	// counting is the sink's mode as Partition.RunUntil read it at the start
	// of the run.
	counting bool

	// The port's LP: the run this epoch's arrivals join, and its epoch.
	run   *arrivalRun
	epoch uint64

	// The sink's LP: the run whose arrivals are being credited, and how many
	// of them are.
	pending *arrivalRun
	next    int
}

// arrivalRun is the arrivals one port staged for its sink in one epoch, in
// arrival order. The port's LP fills it until the engine routes its message;
// from then on it is the sink's LP's, which returns it to the pool.
type arrivalRun struct {
	ch   *runChannel
	recs []arrival
}

type arrival struct {
	at netsim.Time
	n  int
}

// arrivalRunPool recycles runs across LPs: a run is drawn on the port's LP and
// returned on the sink's.
var arrivalRunPool = sync.Pool{New: func() any { return new(arrivalRun) }}

func (c *runChannel) Counting() bool { return c.counting }

// Arrive stages one arrival, at least the channel's lookahead ahead of the
// port's clock. The first of an epoch opens a run and posts it, under the
// (at, schedAt) of the cable hop it stands for.
func (c *runChannel) Arrive(at netsim.Time, n int) {
	if c.run == nil || c.epoch != c.src.Epoch() {
		c.run, c.epoch = arrivalRunPool.Get().(*arrivalRun), c.src.Epoch()
		c.run.ch = c
		c.src.PostRemote(c.dst, at, at.Add(-c.prop), runArrivalRun, c.run)
	}
	c.run.recs = append(c.run.recs, arrival{at, n})
}

// runArrivalRun receives a run on the sink's LP at its first arrival. A port's
// arrivals strictly increase and a run holds one epoch's, so the previous
// run's arrivals all precede this one and are credited by now.
func runArrivalRun(a any) {
	r := a.(*arrivalRun)
	c := r.ch
	c.sync()
	if c.pending != nil {
		panic(fmt.Sprintf("testbed: arrival runs to sink %s overlap", c.sink.Iface.Name))
	}
	c.pending, c.next = r, 0
	c.sync()
}

// sync credits the sink with every staged arrival at or before its clock; run
// boundaries, Sink.Describe and Sink.Reset call it.
func (c *runChannel) sync() {
	r := c.pending
	if r == nil {
		return
	}
	now := c.dst.Now()
	for ; c.next < len(r.recs) && r.recs[c.next].at <= now; c.next++ {
		sinkEnd{c.sink}.Arrive(r.recs[c.next].at, r.recs[c.next].n)
	}
	if c.next == len(r.recs) {
		r.ch, r.recs = nil, r.recs[:0]
		arrivalRunPool.Put(r)
		c.pending = nil
	}
}
