// Package moongen models the paper's software baseline: MoonGen, a
// DPDK-based packet generator scripted in Lua (Emmerich et al., IMC'15).
// The model captures the behaviours the paper's comparisons rest on:
//
//   - a per-core packet budget (one CPU core saturates a 10 Gbps port with
//     64-byte frames; a single core cannot fill a 40 Gbps port with small
//     packets — Figs. 9b, 10b);
//   - DPDK burst batching, which makes software departures bursty;
//   - NIC hardware rate control whose pacing clock is far coarser than a
//     switch pipeline's packet-arrival granularity, leaving inter-departure
//     errors an order of magnitude above HyperTester's (Fig. 11);
//   - software timestamping error that inflates measured delays (Fig. 18).
//
// Calibration sources: the MoonGen paper's reported 14.88 Mpps single-core
// line-rate result for 10 GbE and the gap study it cites ([24] in the
// HyperTester paper).
package moongen

import (
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/testbed"
)

// Model constants.
const (
	// CPUCostPerPacket is the per-packet CPU time of the generation loop
	// (buffer alloc, field fill, checksum offload setup). 63.5 ns/packet
	// = 15.75 Mpps per core — just enough for one core to saturate a
	// 10 GbE port with 64-byte frames under this repo's 80-byte wire
	// occupancy model (the classic "14.88 Mpps" figure assumes 84 bytes).
	CPUCostPerPacket = netsim.Duration(63500) // 63.5 ns in ps

	// CPUCostJitterSpread is the spread of per-packet CPU time noise
	// (cache misses, ring contention).
	CPUCostJitterSpread = 8 * netsim.Nanosecond

	// BurstSize is the DPDK TX burst: the CPU hands descriptors to the
	// NIC in batches, so software departures cluster.
	BurstSize = 32

	// HWRateClock is the NIC rate-limiter pacing granularity. Hardware
	// rate control quantizes departure slots to this grid — coarse next
	// to the 6.4 ns template-arrival granularity of a switch pipeline.
	HWRateClock = 205 * netsim.Nanosecond

	// SWTimestampMean/Spread model CPU (software) timestamping error:
	// the timestamp is taken in the processing loop, microseconds away
	// from the wire (Fig. 18's MoonGen-SW deviating ~3x).
	SWTimestampMean   = 1200 * netsim.Nanosecond
	SWTimestampSpread = 900 * netsim.Nanosecond

	// HWTimestampSpread models NIC MAC-level timestamp error.
	HWTimestampSpread = 4 * netsim.Nanosecond
)

// Config describes one generator instance (one core driving one port, the
// deployment the paper evaluates).
type Config struct {
	Name     string
	PortGbps float64
	FrameLen int
	// TargetPps is the configured rate; 0 means "as fast as possible".
	TargetPps float64
	// HWRateControl selects NIC-based pacing (the paper configures
	// MoonGen this way for the rate-control comparison).
	HWRateControl bool
	// Build constructs the n-th frame. Nil uses a fixed UDP frame.
	Build func(n uint64) []byte
	Seed  int64
}

// Generator is one MoonGen core+port instance.
type Generator struct {
	Iface *testbed.Iface

	cfg Config
	sim *netsim.Sim
	rng *netsim.RNG

	// Sent counts frames handed to the NIC.
	Sent uint64

	cpuReady netsim.Time // when the core finishes producing the next packet
	running  bool
	stopAt   netsim.Time

	fixedFrame []byte
}

// New builds a generator.
func New(sim *netsim.Sim, cfg Config) *Generator {
	g := &Generator{
		Iface: testbed.NewIface(sim, cfg.Name, cfg.PortGbps),
		cfg:   cfg,
		sim:   sim,
		rng:   netsim.NewRNG(cfg.Seed, "moongen/"+cfg.Name),
	}
	if cfg.Build == nil {
		frameLen := cfg.FrameLen
		if frameLen < netproto.MinUDPFrame {
			frameLen = netproto.MinUDPFrame
		}
		raw, err := netproto.BuildUDP(netproto.UDPSpec{
			SrcIP: netproto.MustIPv4("10.1.0.1"), DstIP: netproto.MustIPv4("10.2.0.1"),
			SrcPort: 1000, DstPort: 2000, FrameLen: frameLen,
		})
		if err != nil {
			panic(err)
		}
		g.fixedFrame = raw
	}
	return g
}

// Start begins generation until the given virtual deadline.
func (g *Generator) Start(until netsim.Time) {
	if g.running {
		return
	}
	g.running = true
	g.stopAt = until
	g.cpuReady = g.sim.Now()
	if g.cfg.TargetPps > 0 {
		g.schedulePaced()
	} else {
		g.scheduleBurst()
	}
}

// scheduleBurst models max-speed generation: the core spends per-packet CPU
// time assembling BurstSize descriptors, then hands the burst to the NIC,
// which serializes back to back.
func (g *Generator) scheduleBurst() {
	if !g.running || g.sim.Now() >= g.stopAt {
		g.running = false
		return
	}
	var cpu netsim.Duration
	for i := 0; i < BurstSize; i++ {
		cpu += CPUCostPerPacket + g.rng.Jitter(CPUCostJitterSpread)
	}
	g.sim.After(cpu, func() {
		if !g.running || g.sim.Now() >= g.stopAt {
			g.running = false
			return
		}
		for i := 0; i < BurstSize; i++ {
			g.Iface.Send(g.nextPacket())
		}
		g.scheduleBurst()
	})
}

// schedulePaced models rate-controlled generation: one packet per interval.
// With HW rate control the NIC releases descriptors on its internal pacing
// grid; with software rate control the CPU busy-waits, adding timer noise.
// In both modes the NIC TX queue backpressures the core, so production
// never runs ahead of pacing (descriptor ring model).
func (g *Generator) schedulePaced() {
	if !g.running || g.sim.Now() >= g.stopAt {
		g.running = false
		return
	}
	interval := netsim.Duration(1e12 / g.cfg.TargetPps)
	n := netsim.Duration(g.Sent)
	ideal := netsim.Time(n * interval)

	var depart netsim.Time
	if g.cfg.HWRateControl {
		depart = quantizeUp(ideal, HWRateClock)
		// Descriptor fetch / DMA completion noise grows with frame
		// size (the gap study [24] observed exactly this); it is the
		// dominant error term for large paced frames.
		depart = depart.Add(netsim.Duration(g.rng.Int63n(int64(dmaJitter(len(g.frameBytesFor()))))))
	} else {
		// Software pacing: busy-wait precision noise, always late.
		depart = ideal.Add(netsim.Duration(g.rng.Int63n(int64(swPacerSpread))))
	}
	// CPU feeding constraint: the core needs CPUCostPerPacket per frame.
	g.cpuReady = g.cpuReady.Add(CPUCostPerPacket + g.rng.Jitter(CPUCostJitterSpread))
	if depart < g.cpuReady {
		depart = g.cpuReady
	}
	if now := g.sim.Now(); depart < now {
		depart = now
	}
	if depart >= g.stopAt {
		g.running = false
		return
	}
	g.sim.At(depart, func() {
		g.Iface.Send(g.nextPacket())
		g.schedulePaced()
	})
}

// swPacerSpread is the software busy-wait release noise.
const swPacerSpread = 600 * netsim.Nanosecond

// dmaJitter is the NIC descriptor-fetch/DMA noise bound for a frame size.
func dmaJitter(frameLen int) netsim.Duration {
	return (150 + 2*netsim.Duration(frameLen)) * netsim.Nanosecond
}

// frameBytesFor reports the frame length of the next packet (model input
// for the DMA noise bound).
func (g *Generator) frameBytesFor() []byte {
	if g.cfg.Build != nil {
		return make([]byte, g.cfg.FrameLen+netproto.MinUDPFrame)
	}
	return g.fixedFrame
}

// nextPacket builds the next frame to send.
func (g *Generator) nextPacket() *netproto.Packet {
	var data []byte
	if g.cfg.Build != nil {
		data = g.cfg.Build(g.Sent)
	} else {
		data = make([]byte, len(g.fixedFrame))
		copy(data, g.fixedFrame)
	}
	pkt := &netproto.Packet{Data: data}
	pkt.Meta.UID = g.Sent + 1
	g.Sent++
	return pkt
}

func quantizeUp(t netsim.Time, grid netsim.Duration) netsim.Time {
	gt := netsim.Time(grid)
	return (t + gt - 1) / gt * gt
}

// SWTimestamp returns a software (CPU) timestamp for an event at true time
// t: late and noisy, as Fig. 18's MoonGen-SW results show.
func (g *Generator) SWTimestamp(t netsim.Time) netsim.Time {
	return t.Add(SWTimestampMean + g.rng.Jitter(SWTimestampSpread))
}

// HWTimestamp returns a NIC hardware timestamp for an event at true time t.
func (g *Generator) HWTimestamp(t netsim.Time) netsim.Time {
	return t.Add(g.rng.Jitter(HWTimestampSpread))
}
