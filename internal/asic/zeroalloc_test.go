package asic

import (
	"runtime/debug"
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/raceflag"
)

// TestIngressPipelineZeroAllocs pins the steady-state allocation contract of
// the unicast hot path: with pooled events, jobs, PHVs, and packets, a full
// ingress→TM→egress→wire traversal must not touch the heap. GC is paused so
// sync.Pool contents survive the measurement deterministically.
func TestIngressPipelineZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	sim, sw := benchTestSwitch(t, 2)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.EgressPort = 1 }))
	sw.Port(1).SetPeer(func(pkt *netproto.Packet, at netsim.Time) { pkt.Release() })
	base := testFrame(t, 64)
	run := func() {
		sw.Port(0).Receive(base.Clone())
		sim.Run()
	}
	for i := 0; i < 32; i++ { // warm the pools
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("unicast traversal allocates %v allocs/op, want 0", avg)
	}
}

// TestMcastReplicateZeroAllocs pins the same contract for replication: one
// template arrival fanning out to 4 ports must run allocation-free.
func TestMcastReplicateZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	sim, sw := benchTestSwitch(t, 5)
	if err := sw.Mcast.SetGroup(1, []CopySpec{
		{Port: 1, Rid: 1}, {Port: 2, Rid: 2}, {Port: 3, Rid: 3}, {Port: 4, Rid: 4},
	}); err != nil {
		t.Fatal(err)
	}
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) { p.McastGroup = 1 }))
	for i := 1; i <= 4; i++ {
		sw.Port(i).SetPeer(func(pkt *netproto.Packet, at netsim.Time) { pkt.Release() })
	}
	base := testFrame(t, 64)
	run := func() {
		sw.Port(0).Receive(base.Clone())
		sim.Run()
	}
	for i := 0; i < 32; i++ {
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("4-way replication allocates %v allocs/op, want 0", avg)
	}
}

func benchTestSwitch(t *testing.T, ports int) (*netsim.Sim, *Switch) {
	t.Helper()
	sim := netsim.New()
	gbps := make([]float64, ports)
	for i := range gbps {
		gbps[i] = 100
	}
	return sim, New(Config{Name: "bench", Sim: sim, PortGbps: gbps, Seed: 1})
}

func testFrame(t *testing.T, size int) *netproto.Packet {
	t.Helper()
	raw, err := netproto.BuildUDP(netproto.UDPSpec{
		SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
		SrcPort: 1, DstPort: 2, FrameLen: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &netproto.Packet{Data: raw}
}

// TestDigestPathZeroAllocs pins the allocation contract of the §5.2 digest
// channel: a frame whose pipeline pass emits a generate_digest message —
// queueing it, draining it over the rate-limited channel, and handing it to
// the CPU-side callback — must recycle every buffer (packet, PHV, event,
// digest message) through its pool and never touch the heap in steady state.
func TestDigestPathZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	sim, sw := benchTestSwitch(t, 1)
	payload := make([]byte, 64)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
		p.DigestData = payload
		p.Drop = true
	}))
	var digests, bytes uint64
	sw.DigestOut = func(msg []byte, at netsim.Time) {
		digests++
		bytes += uint64(len(msg))
	}
	base := testFrame(t, 64)
	run := func() {
		sw.Port(0).Receive(base.Clone())
		sim.Run() // includes the 455us channel-service drain event
	}
	for i := 0; i < 32; i++ { // warm the pools
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("digest emit+drain allocates %v allocs/op, want 0", avg)
	}
	if digests == 0 || bytes == 0 {
		t.Fatalf("digest callback never ran (digests=%d bytes=%d)", digests, bytes)
	}
}
