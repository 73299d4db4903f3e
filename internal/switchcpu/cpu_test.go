package switchcpu

import (
	"runtime/debug"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/raceflag"
)

func newCPU(t *testing.T) (*netsim.Sim, *asic.Switch, *CPU) {
	t.Helper()
	sim := netsim.New()
	sw := asic.New(asic.Config{Name: "sw", Sim: sim, PortGbps: []float64{100}, Seed: 1})
	return sim, sw, New(sim, sw)
}

func TestDigestReceive(t *testing.T) {
	sim, sw, cpu := newCPU(t)
	var got []string
	var gotAt netsim.Time
	cpu.OnDigest = func(msg []byte, at netsim.Time) {
		got = append(got, string(msg)) // msg is valid only during the call
		gotAt = at
	}
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		p.DigestData = []byte("report!")
		p.Drop = true
	}))
	raw, _ := netproto.BuildUDP(netproto.UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, FrameLen: 64})
	sw.Port(0).Receive(&netproto.Packet{Data: raw})
	sim.Run()
	if len(got) != 1 || got[0] != "report!" {
		t.Fatalf("digests = %q", got)
	}
	if cpu.DigestBytes != 7 {
		t.Fatalf("DigestBytes = %d", cpu.DigestBytes)
	}
	if gotAt == 0 {
		t.Fatal("OnDigest not invoked")
	}
}

// TestCPUDigestPathZeroAllocs pins the switch-CPU end of push-mode reporting:
// once the ASIC's channel buffers are warm, a digest message crossing the
// channel into DigestOut and on to OnDigest allocates nothing — the CPU
// keeps no copy of what it is handed.
func TestCPUDigestPathZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	sim, sw, cpu := newCPU(t)
	var digests uint64
	cpu.OnDigest = func(msg []byte, at netsim.Time) { digests++ }
	payload := make([]byte, 64)
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		p.DigestData = payload
		p.Drop = true
	}))
	raw, _ := netproto.BuildUDP(netproto.UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, FrameLen: 64})
	base := &netproto.Packet{Data: raw}
	run := func() {
		sw.Port(0).Receive(base.Clone())
		sim.Run() // includes the channel-service drain event
	}
	for i := 0; i < 32; i++ { // warm the pools
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("digest channel -> DigestOut -> OnDigest allocates %v allocs/op, want 0", avg)
	}
	if digests != 32+201 || cpu.DigestBytes != 64*digests {
		t.Fatalf("OnDigest ran %d times for %d bytes, want %d messages of 64 bytes",
			digests, cpu.DigestBytes, 32+201)
	}
}

func TestPullCounterSingle(t *testing.T) {
	sim, _, cpu := newCPU(t)
	r := asic.NewRegisterArray("ctr", 8)
	r.Write(3, 42)
	var got []uint64
	var at netsim.Time
	cpu.PullCounters(r, 3, 4, func(vals []uint64, when netsim.Time) { got, at = vals, when })
	sim.Run()
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("values = %v", got)
	}
	if at != netsim.Time(SingleReadLatency) {
		t.Fatalf("completion at %v, want %v", at, SingleReadLatency)
	}
}

func TestPullSerialized(t *testing.T) {
	// Two overlapping single pulls must be serialized on the channel.
	sim, _, cpu := newCPU(t)
	r := asic.NewRegisterArray("ctr", 8)
	var times []netsim.Time
	record := func(_ []uint64, at netsim.Time) { times = append(times, at) }
	cpu.PullCounters(r, 0, 1, record)
	cpu.PullCounters(r, 1, 2, record)
	sim.Run()
	if times[1].Sub(times[0]) != SingleReadLatency {
		t.Fatalf("pulls not serialized: %v", times)
	}
}

func TestBatchedPullFaster(t *testing.T) {
	// Fig. 16b: 65536 counters in <0.2s batched; one-by-one much slower.
	const n = 65536
	sim, _, cpu := newCPU(t)
	r := asic.NewRegisterArray("ctr", n)
	var batchDone, singleDone netsim.Time
	cpu.PullCountersBatch(r, 0, n, func(vals []uint64, at netsim.Time) {
		if len(vals) != n {
			t.Errorf("batch returned %d values", len(vals))
		}
		batchDone = at
	})
	sim.Run()

	sim2, _, cpu2 := func() (*netsim.Sim, *asic.Switch, *CPU) {
		s := netsim.New()
		sw := asic.New(asic.Config{Name: "sw2", Sim: s, PortGbps: []float64{100}})
		return s, sw, New(s, sw)
	}()
	r2 := asic.NewRegisterArray("ctr", n)
	cpu2.PullCounters(r2, 0, n, func(vals []uint64, at netsim.Time) { singleDone = at })
	sim2.Run()

	if batchDone.Seconds() >= 0.2 {
		t.Fatalf("batched pull of 65536 took %.3fs, want <0.2s (Fig. 16b)", batchDone.Seconds())
	}
	if singleDone.Seconds() < 5*batchDone.Seconds() {
		t.Fatalf("one-by-one (%.3fs) should be far slower than batched (%.3fs)",
			singleDone.Seconds(), batchDone.Seconds())
	}
}

func TestPullEmptyRange(t *testing.T) {
	sim, _, cpu := newCPU(t)
	r := asic.NewRegisterArray("ctr", 4)
	called := false
	cpu.PullCounters(r, 2, 2, func(vals []uint64, at netsim.Time) {
		called = true
		if vals != nil {
			t.Errorf("vals = %v", vals)
		}
	})
	cpu.PullCountersBatch(r, 3, 1, func(vals []uint64, at netsim.Time) {
		if vals != nil {
			t.Errorf("batch vals = %v", vals)
		}
	})
	sim.Run()
	if !called {
		t.Fatal("done not called for empty range")
	}
}

func TestPullSnapshotDecoupled(t *testing.T) {
	// The values delivered reflect completion time, and later data-plane
	// writes must not mutate the delivered slice.
	sim, _, cpu := newCPU(t)
	r := asic.NewRegisterArray("ctr", 2)
	r.Write(0, 7)
	var got []uint64
	cpu.PullCountersBatch(r, 0, 2, func(vals []uint64, at netsim.Time) { got = vals })
	sim.Run()
	r.Write(0, 99)
	if got[0] != 7 {
		t.Fatalf("snapshot aliased live register: %v", got)
	}
}

func TestInjectTemplate(t *testing.T) {
	sim, sw, cpu := newCPU(t)
	seen := false
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		seen = p.Meta.InPort == asic.CPUPortID
		p.Drop = true
	}))
	raw, _ := netproto.BuildUDP(netproto.UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, FrameLen: 64})
	cpu.InjectTemplate(&netproto.Packet{Data: raw, Meta: netproto.Meta{TemplateID: 1}})
	sim.Run()
	if !seen {
		t.Fatal("template did not reach ingress from CPU port")
	}
}
