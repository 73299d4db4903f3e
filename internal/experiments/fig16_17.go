package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/switchcpu"
)

// Fig16StatCollection reproduces Fig. 16: push-mode digest goodput across
// message sizes, and pull-mode latency for counter collection with and
// without batching.
func Fig16StatCollection(cfg Config) *Result {
	res := &Result{
		ID:      "Fig. 16",
		Title:   "Test statistic collection",
		Columns: []string{"value"},
	}

	// (a) digest goodput vs message size: offer digests faster than the
	// channel drains them for a window and measure CPU-side bytes/s.
	window := 3 * netsim.Second
	if cfg.Quick {
		window = 1 * netsim.Second
	}
	for _, msgSize := range []int{16, 32, 64, 128, 256} {
		sim := netsim.New()
		sw := asic.New(asic.Config{Name: "sw", Sim: sim, PortGbps: []float64{100}, Seed: cfg.Seed})
		cpu := switchcpu.New(sim, sw)
		// The experiment only counts digest bytes, so skip retaining copies
		// of every message (the pooled digest buffers then recirculate).
		cpu.RetainDigests = false
		msg := make([]byte, msgSize)
		sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
			p.DigestData = msg
			p.Drop = true
		}))
		raw, _ := netproto.BuildUDP(netproto.UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, FrameLen: 64})
		// Offer 10K digests/s — well above the channel's drain rate. One
		// self-rescheduling injector replaces a pre-scheduled event (and a
		// fresh frame copy) per offer: the dropped frames recycle through
		// the packet pool, so a multi-second window stays allocation-flat.
		inj := &fig16Injector{sim: sim, port: sw.Port(0), raw: raw,
			every: 100 * netsim.Microsecond, until: netsim.Time(window)}
		sim.AtCall(0, runFig16Offer, inj)
		sim.RunUntil(netsim.Time(window))
		goodputMbps := float64(cpu.DigestBytes) * 8 / window.Seconds() / 1e6
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("push goodput, %dB msgs", msgSize),
			Values: []string{fmt.Sprintf("%.2f Mbps", goodputMbps)},
		})
	}

	// (b) pull latency for N counters, one-by-one vs batched.
	for _, n := range []int{1024, 8192, 65536} {
		sim := netsim.New()
		sw := asic.New(asic.Config{Name: "sw", Sim: sim, PortGbps: []float64{100}, Seed: cfg.Seed})
		cpu := switchcpu.New(sim, sw)
		reg := asic.NewRegisterArray("ctrs", n)
		var single, batch netsim.Time
		cpu.PullCounters(reg, 0, n, func(vals []uint64, at netsim.Time) { single = at })
		sim.Run()
		sim2 := netsim.New()
		sw2 := asic.New(asic.Config{Name: "sw2", Sim: sim2, PortGbps: []float64{100}, Seed: cfg.Seed})
		cpu2 := switchcpu.New(sim2, sw2)
		cpu2.PullCountersBatch(reg, 0, n, func(vals []uint64, at netsim.Time) { batch = at })
		sim2.Run()
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("pull %d counters", n),
			Values: []string{fmt.Sprintf("w/o batch %.3fs, w/ batch %.3fs",
				single.Seconds(), batch.Seconds())},
		})
	}
	res.Notes = append(res.Notes,
		"paper Fig. 16: goodput grows with message size to ~4.5Mbps; 65536 counters pull in <0.2s batched, far slower one-by-one")
	return res
}

// fig16Injector offers one digest-bearing frame to the switch per period,
// rescheduling itself until the window closes.
type fig16Injector struct {
	sim   *netsim.Sim
	port  *asic.Port
	raw   []byte
	every netsim.Duration
	until netsim.Time
}

func runFig16Offer(a any) {
	inj := a.(*fig16Injector)
	pkt := netproto.NewPacket(len(inj.raw))
	copy(pkt.Data, inj.raw)
	inj.port.Receive(pkt)
	if next := inj.sim.Now().Add(inj.every); next < inj.until {
		inj.sim.AtCall(next, runFig16Offer, inj)
	}
}

// Fig17ExactMatch reproduces Fig. 17: the number of exact-key-matching
// entries needed to remove all false positives, as the flow population and
// the hashing-array size change, for 16-bit and 32-bit digests. Each point
// repeats over several trials with fresh random flow populations.
func Fig17ExactMatch(cfg Config) *Result {
	res := &Result{
		ID:      "Fig. 17",
		Title:   "Exact key matching entries vs #flows",
		Columns: []string{"16b digest (avg entries)", "32b digest (avg entries)", "16b memory"},
	}
	flowCounts := []int{1 << 16, 1 << 18, 1 << 20, 2 << 20}
	trials := 20
	if cfg.Quick {
		flowCounts = []int{1 << 16, 1 << 18, 1 << 19}
		trials = 3
	}
	arraySizes := []int{1 << 14, 1 << 16}
	rng := rand.New(rand.NewSource(cfg.Seed + 170))
	for _, n := range flowCounts {
		// Large populations keep runtime bounded with fewer trials; the
		// collision counts there are large enough to be stable anyway.
		t := trials
		if n > 1<<18 && t > 5 {
			t = 5
		}
		for _, arraySize := range arraySizes {
			// Populations draw sequentially from the one rng stream (so any
			// worker count sees identical populations), each straight into
			// one row-major key matrix; the false-positive computations —
			// the CPU-bound bulk of the experiment — then run on the worker
			// pool. A worker holds one kernel, so in-flight trials (and peak
			// memory) stay at a few populations regardless of trial count.
			// Each population is hashed once for both digest widths: the
			// 16-bit digest is the low half of the 32-bit one.
			type trialRes struct{ e16, e32 float64 }
			results := make([]trialRes, t)
			kernels := make(chan *compiler.ExactKeyKernel, cfg.simWorkers())
			for i := 0; i < cap(kernels); i++ {
				kernels <- compiler.NewExactKeyKernel(asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
			}
			var wg sync.WaitGroup
			for trial := 0; trial < t; trial++ {
				// Random 5-tuple-like keys (src, dst, ports+proto).
				const width = 3
				rows := make([]uint64, width*n)
				for i := 0; i < len(rows); i += width {
					rows[i] = rng.Uint64() & 0xffffffff
					rows[i+1] = rng.Uint64() & 0xffffffff
					rows[i+2] = rng.Uint64() & 0xffffffffff
				}
				k := <-kernels
				wg.Add(1)
				go func(trial int) {
					defer wg.Done()
					k.Hash(rows, width)
					results[trial] = trialRes{
						e16: float64(len(k.ExactRows(arraySize, 16))),
						e32: float64(len(k.ExactRows(arraySize, 32))),
					}
					kernels <- k
				}(trial)
			}
			wg.Wait()
			var sum16, sum32 float64
			for _, r := range results {
				sum16 += r.e16
				sum32 += r.e32
			}
			avg16 := sum16 / float64(t)
			avg32 := sum32 / float64(t)
			// Each entry stores the 13-byte 5-tuple key: memory as in §7.3.
			memKB := avg16 * 13 / 1024
			res.Rows = append(res.Rows, Row{
				Label:  fmt.Sprintf("%d flows, %dK-slot arrays", n, arraySize>>10),
				Values: []string{f1(avg16), f1(avg32), fmt.Sprintf("%.1f KB", memKB)},
			})
		}
	}
	res.Notes = append(res.Notes,
		"paper Fig. 17: <=3000 entries (~39KB) for over 2M flows with 16-bit digests; 32-bit digests need far fewer entries at 2x memory per entry; smaller arrays need more entries")
	return res
}
