package testbed

import (
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

	// MaxRecorded bounds timestamp recording (0 = unlimited).
	MaxRecorded int

	// OnPacket, when set, runs for each arriving frame.
	OnPacket func(pkt *netproto.Packet, at netsim.Time)

	// Capture state (see EnableCapture / WritePcap).
	capturing  bool
	captureMax int
	captured   []CapturedFrame

	sim *netsim.Sim
}

// NewSink builds a sink behind a fresh interface of the given rate.
func NewSink(sim *netsim.Sim, name string, gbps float64) *Sink {
	s := &Sink{Iface: NewIface(sim, name, gbps), sim: sim}
	s.Iface.OnReceive(s.receive)
	return s
}

func (s *Sink) receive(pkt *netproto.Packet) {
	now := s.sim.Now()
	if s.Packets == 0 {
		s.First = now
		s.firstBytes = uint64(pkt.Len())
	}
	s.Last = now
	s.Packets++
	s.Bytes += uint64(pkt.Len())
	if s.RecordTimestamps && (s.MaxRecorded == 0 || len(s.Timestamps) < s.MaxRecorded) {
		s.Timestamps = append(s.Timestamps, now.Nanoseconds())
	}
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
	r.Num(prefix, "rx_packets", float64(s.Packets))
	r.Num(prefix, "rx_bytes", float64(s.Bytes))
	r.Num(prefix, "gbps", s.ThroughputGbps())
	r.Num(prefix, "pps", s.RatePps())
}

// Reset clears counters and recordings (for measuring in phases).
func (s *Sink) Reset() {
	s.Packets, s.Bytes, s.firstBytes = 0, 0, 0
	s.First, s.Last = 0, 0
	s.Timestamps = s.Timestamps[:0]
	s.captured = s.captured[:0]
}
