package testbed

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// Sink is a measurement endpoint: it counts frames and bytes, optionally
// records arrival timestamps, and can invoke a hook per frame. It stands in
// for the receiving side of throughput and rate-control experiments.
type Sink struct {
	Iface *Iface

	Packets uint64
	Bytes   uint64
	First   netsim.Time
	Last    netsim.Time

	firstBytes uint64

	// RecordTimestamps, when set before traffic starts, appends each
	// arrival to Timestamps (ns, float64) for error metrics.
	RecordTimestamps bool
	Timestamps       []float64

	// OnPacket, when set before traffic starts, runs for each arriving
	// frame. A switch port cabled to a sink without one accounts the
	// sink's arrivals instead of delivering them (DESIGN.md §9.8), so
	// setting it while such frames are in flight panics at the next sync.
	OnPacket func(pkt *netproto.Packet, at netsim.Time)

	// Capture state (see EnableCapture, Captured and WritePcap).
	capturing  bool
	captureMax int
	captured   []CapturedFrame

	// feeds are the switch ports that account frames to this sink.
	feeds []*asic.Port

	sim *netsim.Sim
}

// NewSink builds a sink behind a fresh interface of the given rate.
func NewSink(sim *netsim.Sim, name string, gbps float64) *Sink {
	s := &Sink{Iface: NewIface(sim, name, gbps), sim: sim}
	s.Iface.OnReceive(s.receive)
	s.Iface.sink = s
	return s
}

func (s *Sink) receive(pkt *netproto.Packet) {
	now := s.sim.Now()
	s.count(now, pkt.Len())
	s.captureFrame(pkt, now)
	if s.OnPacket != nil {
		// The hook may retain the packet, so ownership passes to it and
		// the pool is bypassed.
		s.OnPacket(pkt, now)
		return
	}
	if s.capturing {
		return // captured frames keep the packet's bytes alive
	}
	// A plain counting sink is the end of the frame's life: recycle it so
	// line-rate throughput runs recirculate buffers instead of growing the
	// heap.
	pkt.Release()
}

// count credits one frame of n bytes arriving at at.
func (s *Sink) count(at netsim.Time, n int) {
	if s.Packets == 0 {
		s.First = at
		s.firstBytes = uint64(n)
	}
	s.Last = at
	s.Packets++
	s.Bytes += uint64(n)
	if s.RecordTimestamps {
		s.Timestamps = append(s.Timestamps, at.Nanoseconds())
	}
}

// counting reports whether an arriving frame would do nothing but count:
// no hook, no capture, no trace on the interface, and the interface still
// delivering to this sink.
func (s *Sink) counting() bool {
	return s.OnPacket == nil && !s.capturing && s.Iface.trace == nil && s.Iface.sink == s
}

// sync credits every frame the feeding ports have accounted to this sink up
// to the clock.
func (s *Sink) sync() {
	for _, pt := range s.feeds {
		pt.Sync()
	}
}

// sinkEnd is a sink as the counting far end of a switch port (asic.FarEnd).
type sinkEnd struct{ s *Sink }

func (e sinkEnd) Counting() bool { return e.s.counting() }

// Arrive credits a frame the port accounted: the interface's RX counters and
// the sink's, as Iface.Deliver and receive would have at the arrival. A sink
// that stopped only counting while the frame was in flight would have seen
// it otherwise, so that is a panic, never a silently missed frame.
func (e sinkEnd) Arrive(at netsim.Time, n int) {
	s := e.s
	if !s.counting() {
		panic(fmt.Sprintf("testbed: sink %s got an OnPacket hook, a capture, a trace or another receiver "+
			"with frames in flight; set it before traffic starts", s.Iface.Name))
	}
	s.Iface.RxPackets++
	s.Iface.RxBytes += uint64(n)
	s.count(at, n)
}

// ThroughputGbps returns the goodput plus wire overhead over the window the
// sink observed traffic, in Gbps — the way testers report port throughput.
func (s *Sink) ThroughputGbps() float64 {
	if s.Packets < 2 {
		return 0
	}
	span := s.Last.Sub(s.First).Nanoseconds()
	if span <= 0 {
		return 0
	}
	// The window [First,Last] spans Packets-1 inter-arrival gaps, so the
	// first frame's bits are excluded to avoid overestimating rate.
	bits := float64(s.Bytes-s.firstBytes+uint64(s.Packets-1)*netproto.WireOverheadBytes) * 8
	return bits / span
}

// RatePps returns observed packets per second over the measurement window.
func (s *Sink) RatePps() float64 {
	if s.Packets < 2 {
		return 0
	}
	span := s.Last.Sub(s.First).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(s.Packets-1) / span
}

// Describe records the sink's counters and rates under prefix.
func (s *Sink) Describe(r *obs.Registry, prefix string) {
	s.sync()
	r.Num(prefix, "rx_packets", float64(s.Packets))
	r.Num(prefix, "rx_bytes", float64(s.Bytes))
	r.Num(prefix, "gbps", s.ThroughputGbps())
	r.Num(prefix, "pps", s.RatePps())
}

// Reset clears counters and recordings (for measuring in phases).
func (s *Sink) Reset() {
	s.sync()
	s.Packets, s.Bytes, s.firstBytes = 0, 0, 0
	s.First, s.Last = 0, 0
	s.Timestamps = s.Timestamps[:0]
	s.captured = s.captured[:0]
}
