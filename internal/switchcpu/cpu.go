// Package switchcpu models the switch's control-plane CPU: the low-
// performance, high-programmability processor HyperTester co-designs with
// the switching ASIC (§3.1). It provides template-packet injection over the
// PCIe packet interface, the digest receive path (push-mode statistics),
// and the counter pull API in both one-by-one and batched form — the two
// collection modes Fig. 16 benchmarks.
package switchcpu

import (
	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
)

// Collection-latency calibration (Fig. 16b): batched pulls fetch 65536
// counters in under 0.2 s, one-by-one pulls are roughly an order of
// magnitude slower.
const (
	// SingleReadLatency is one control-plane register read RPC.
	SingleReadLatency = 30 * netsim.Microsecond
	// BatchSetupLatency is the fixed cost of a batched DMA pull.
	BatchSetupLatency = 1 * netsim.Millisecond
	// BatchPerCounterLatency is the marginal cost per counter in a batch.
	BatchPerCounterLatency = 3 * netsim.Microsecond
)

// CPU is the switch control-plane processor.
type CPU struct {
	sim *netsim.Sim
	sw  *asic.Switch

	// OnDigest, when set, runs for every digest message after the PCIe
	// channel delay. The msg slice is pooled by the ASIC's digest channel
	// and valid only during the call; retain a copy if needed.
	OnDigest func(msg []byte, at netsim.Time)

	// DigestBytes totals goodput for the Fig. 16a measurement.
	DigestBytes uint64

	// pullBusyUntil serializes control-plane reads: the CPU issues one
	// RPC at a time.
	pullBusyUntil netsim.Time
}

// New attaches a CPU to a switch, wiring the digest channel.
func New(sim *netsim.Sim, sw *asic.Switch) *CPU {
	c := &CPU{sim: sim, sw: sw}
	sw.DigestOut = func(data []byte, at netsim.Time) {
		c.DigestBytes += uint64(len(data))
		if c.OnDigest != nil {
			c.OnDigest(data, at)
		}
	}
	return c
}

// InjectTemplate sends a CPU-built template packet into the ASIC over PCIe.
func (c *CPU) InjectTemplate(pkt *netproto.Packet) { c.sw.InjectFromCPU(pkt) }

// occupyPull reserves the control-plane channel for d and returns the
// completion time.
func (c *CPU) occupyPull(d netsim.Duration) netsim.Time {
	start := c.pullBusyUntil
	if now := c.sim.Now(); start < now {
		start = now
	}
	end := start.Add(d)
	c.pullBusyUntil = end
	return end
}

// PullCounters reads cells [lo,hi) one RPC at a time (the paper's "w/o
// batching" mode); done runs after the last RPC.
func (c *CPU) PullCounters(r *asic.RegisterArray, lo, hi int, done func(vals []uint64, at netsim.Time)) {
	n := hi - lo
	if n <= 0 {
		done(nil, c.sim.Now())
		return
	}
	end := c.occupyPull(netsim.Duration(n) * SingleReadLatency)
	c.sim.At(end, func() {
		done(r.Snapshot(lo, hi), end)
	})
}

// PullCountersBatch reads cells [lo,hi) with one batched DMA operation (the
// paper's "w/ batching" mode).
func (c *CPU) PullCountersBatch(r *asic.RegisterArray, lo, hi int, done func(vals []uint64, at netsim.Time)) {
	n := hi - lo
	if n <= 0 {
		done(nil, c.sim.Now())
		return
	}
	end := c.occupyPull(BatchSetupLatency + netsim.Duration(n)*BatchPerCounterLatency)
	c.sim.At(end, func() {
		done(r.Snapshot(lo, hi), end)
	})
}

// CPUInjectCost is the switch CPU's per-packet cost for direct PCIe packet
// injection. The testbed's control CPU is a 4-core 1.6 GHz Pentium (§7);
// ~800 ns/packet (~1.25 Mpps) is generous for such a core pushing packets
// through the PCIe packet interface.
const CPUInjectCost = 800 * netsim.Nanosecond

// InjectLoop generates packets directly from the switch CPU — the naive
// alternative to template-based generation that §3.1's co-design argument
// rules out. Each packet costs CPUInjectCost of CPU time; build constructs
// the n-th packet. Returns a counter of injected packets.
func (c *CPU) InjectLoop(build func(n uint64) *netproto.Packet, until netsim.Time) *uint64 {
	count := new(uint64)
	var step func()
	step = func() {
		if c.sim.Now() >= until {
			return
		}
		pkt := build(*count)
		*count++
		c.sw.InjectFromCPU(pkt)
		c.sim.After(CPUInjectCost, step)
	}
	c.sim.After(CPUInjectCost, step)
	return count
}
