package htpr

import (
	"bytes"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/switchcpu"
)

func compileTask(t *testing.T, src string) *compiler.Program {
	t.Helper()
	task, err := ntapi.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(task, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// testReceiver builds a receiver for prog bound to a one-port switch that
// carries no pipeline: tests drive the processors directly.
func testReceiver(prog *compiler.Program) *Receiver {
	sw := asic.New(asic.Config{Name: "sw", Sim: netsim.New(), PortGbps: []float64{100}, Seed: 1})
	return NewReceiver(prog, sw)
}

func tcpPHV(t *testing.T, sip netproto.IPv4Addr, sport uint16, flags uint8, inPort int) *asic.PHV {
	t.Helper()
	raw, err := netproto.BuildTCP(netproto.TCPSpec{
		SrcIP: sip, DstIP: netproto.MustIPv4("1.1.0.1"),
		SrcPort: sport, DstPort: 1024, Flags: flags, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netproto.Packet{Data: raw}
	pkt.Meta.InPort = inPort
	return asic.NewPHV(pkt)
}

func TestReceiverFiltersAndCounts(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto, flag], [9.9.9.9, tcp, SYN]).set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
`)
	r := testReceiver(prog)
	proc := r.IngressProcessor()
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPSyn|netproto.TCPAck, 0))
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPRst, 0))
	st := r.State(1)
	if st.Matches != 1 {
		t.Fatalf("matches = %d, want 1 (RST filtered out)", st.Matches)
	}
	if st.MatchedBytes != 64 {
		t.Fatalf("bytes = %d", st.MatchedBytes)
	}
}

func TestReceiverPortFilter(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(port, 0)
Q1 = query().port(2).filter(tcp_flag == SYN)
`)
	r := testReceiver(prog)
	proc := r.IngressProcessor()
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPSyn, 1)) // wrong port
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPSyn, 2)) // right port
	if got := r.State(1).Matches; got != 1 {
		t.Fatalf("matches = %d, want 1", got)
	}
}

func TestReceiverTemplatePacketsDrainNotCount(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(sport, range(1, 1024, 1)).set(port, 0)
Q1 = query().reduce(func=count, keys={ipv4.sip})
`)
	r := testReceiver(prog)
	proc := r.IngressProcessor()
	// A recirculating template packet must not be counted as received
	// traffic; it drains the KV FIFO instead.
	phv := tcpPHV(t, 2, 80, netproto.TCPSyn, 0)
	phv.Meta.TemplateID = 1
	proc.Process(phv)
	if got := r.State(1).Matches; got != 0 {
		t.Fatalf("template packet counted as received traffic: %d", got)
	}
}

func TestReceiverEgressQueryScopedToTemplate(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.1, tcp]).set(port, 0)
T2 = trigger().set([dip, proto], [9.9.9.2, tcp]).set(port, 0)
Q1 = query(T2).reduce(func=count)
`)
	r := testReceiver(prog)
	proc := r.EgressProcessor()

	mk := func(tid, rid int) *asic.PHV {
		phv := tcpPHV(t, 2, 80, netproto.TCPSyn, 0)
		phv.Meta.TemplateID = tid
		phv.Meta.ReplicaID = rid
		return phv
	}
	proc.Process(mk(1, 1)) // other template's replica
	proc.Process(mk(2, 0)) // T2's loop continuation: not sent traffic
	proc.Process(mk(2, 1)) // T2's replica: counts
	proc.Process(mk(0, 0)) // not a template at all
	if got := r.State(1).Matches; got != 1 {
		t.Fatalf("egress query matched %d, want 1", got)
	}
}

func TestReceiverReducePostFilterGatesTrigger(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(port, 0)
Q1 = query().filter(tcp_flag == ACK).reduce(func=count).filter(count >= 3)
T2 = trigger(Q1).set([dip, flag], [Q1.sip, FIN])
`)
	r := testReceiver(prog)
	proc := r.IngressProcessor()
	fifo := r.TriggerFIFO(1)
	if fifo == nil {
		t.Fatal("no trigger FIFO")
	}
	for i := 0; i < 5; i++ {
		proc.Process(tcpPHV(t, 2, 80, netproto.TCPAck, 0))
	}
	// Counts 1,2 gated; 3,4,5 pass the post filter.
	if got := fifo.Len(); got != 3 {
		t.Fatalf("records pushed = %d, want 3 (count >= 3)", got)
	}
	if r.State(1).RecordsPushed != 3 {
		t.Fatalf("RecordsPushed = %d", r.State(1).RecordsPushed)
	}
}

func TestReceiverCollectReports(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(port, 0)
Q1 = query().filter(tcp_flag == SYN).distinct(keys={ipv4.sip})
Q2 = query().filter(tcp_flag == SYN)
`)
	r := testReceiver(prog)
	proc := r.IngressProcessor()
	for i := 0; i < 10; i++ {
		proc.Process(tcpPHV(t, netproto.IPv4Addr(i%4), 80, netproto.TCPSyn, 0))
	}
	reps := r.Collect()
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].Query != "Q1" || reps[0].Distinct != 4 {
		t.Fatalf("Q1 report: %+v", reps[0])
	}
	if reps[1].Query != "Q2" || reps[1].Matches != 10 || reps[1].Results != nil {
		t.Fatalf("Q2 report: %+v", reps[1])
	}
}

func TestSweepIdleEvictsOnlyStale(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<8, 16))
	// Ten keys once; then keep touching the first three.
	for k := uint64(0); k < 10; k++ {
		ct.Update([]uint64{k}, 1)
	}
	for pass := 0; pass < 20; pass++ {
		for k := uint64(0); k < 3; k++ {
			ct.Update([]uint64{k}, 1)
		}
	}
	evicted := ct.SweepIdle(30)
	if evicted != 7 {
		t.Fatalf("evicted %d idle entries, want 7", evicted)
	}
	if ct.Unattributed != 0 {
		t.Fatalf("unattributed evictions: %d", ct.Unattributed)
	}
	// Totals preserved across eviction.
	totals := map[uint64]uint64{}
	for _, r := range ct.Collect() {
		totals[r.Key[0]] = r.Value
	}
	for k := uint64(0); k < 10; k++ {
		want := uint64(1)
		if k < 3 {
			want = 21
		}
		if totals[k] != want {
			t.Fatalf("key %d total %d, want %d", k, totals[k], want)
		}
	}
	// Swept cells are reusable.
	ct.Update([]uint64{99}, 1)
	if ct.SweepIdle(1<<30) != 0 {
		// nothing else is stale under a huge age bound
	}
}

func TestSweepIdleThenContinueCounting(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<6, 16))
	ct.Update([]uint64{5}, 1)
	for i := 0; i < 100; i++ {
		ct.Update([]uint64{uint64(1000 + i)}, 1)
	}
	ct.SweepIdle(50) // key 5 goes to the CPU
	ct.Update([]uint64{5}, 1)
	ct.Update([]uint64{5}, 1)
	for _, r := range ct.Collect() {
		if r.Key[0] == 5 && r.Value != 3 {
			t.Fatalf("key 5 total %d, want 3 (1 evicted + 2 fresh)", r.Value)
		}
	}
}

// digestRig is a receiver on a one-port switch whose CPU merges every digest
// it is handed and keeps a copy of each; an ingress stage ahead of the
// receiver's attaches a foreign message to every frame sent with filler set.
type digestRig struct {
	sim      *netsim.Sim
	sw       *asic.Switch
	cpu      *switchcpu.CPU
	r        *Receiver
	received [][]byte
}

var fillerDigest = []byte("foreign digest")

func newDigestRig(t *testing.T) *digestRig {
	t.Helper()
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(sport, range(1, 1024, 1)).set(port, 0)
Q1 = query().reduce(func=count, keys={ipv4.sip})
`)
	g := &digestRig{sim: netsim.New()}
	g.sw = asic.New(asic.Config{Name: "sw", Sim: g.sim, PortGbps: []float64{100}, Seed: 1})
	g.cpu = switchcpu.New(g.sim, g.sw)
	g.r = NewReceiver(prog, g.sw)
	g.cpu.OnDigest = func(msg []byte, _ netsim.Time) {
		g.received = append(g.received, append([]byte(nil), msg...))
		g.r.MergeDigest(msg)
	}
	g.sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		if asic.FieldL4SrcPort.Get(p) == 1 {
			p.DigestData = fillerDigest
		}
	}))
	g.sw.Ingress.Add(g.r.IngressProcessor())
	g.sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) { p.Drop = true }))
	return g
}

// send has a template frame reach the switch at virtual time at: a filler
// (source port 1) or a plain carrier (source port 2).
func (g *digestRig) send(t *testing.T, at netsim.Duration, filler bool) {
	t.Helper()
	sport := uint16(2)
	if filler {
		sport = 1
	}
	raw, err := netproto.BuildUDP(netproto.UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: sport, DstPort: 9, FrameLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netproto.Packet{Data: raw}
	pkt.Meta.TemplateID = 1
	g.sim.At(netsim.Time(at), func() { g.sw.Port(0).Receive(pkt) })
}

// TestEvictionDigestsArriveInOrder: evictions queued while the digest channel
// fills to digestChannelRoom with foreign messages wait on the data plane —
// a frame already carrying a digest keeps it — and then ride template frames
// one per free slot. The CPU receives exactly AppendEviction(qid, key, value)
// for each, in eviction order, behind every foreign message; Collect folds
// the ones still queued, once however often it is called.
func TestEvictionDigestsArriveInOrder(t *testing.T) {
	g := newDigestRig(t)
	st := g.r.State(1)
	const evictions = 40
	var want [][]byte
	for i := 0; i < evictions; i++ {
		key, value := []uint64{uint64(1000 + i)}, uint64(3*i+1)
		st.Table.OnEvict(key, value)
		want = append(want, AppendEviction(nil, 1, key, value))
	}

	// Fill the channel with foreign messages: the frames carry them while
	// there is room, so no eviction attaches.
	for i := 0; i < digestChannelRoom; i++ {
		g.send(t, netsim.Duration(i)*10*netsim.Nanosecond, true)
	}
	g.sim.RunUntil(netsim.Time(100 * netsim.Microsecond))
	if n := g.sw.DigestQueueLen(); n != digestChannelRoom {
		t.Fatalf("digest channel holds %d messages, want %d", n, digestChannelRoom)
	}
	if n := st.PendingDigests(); n != evictions {
		t.Fatalf("%d evictions pending after the foreign messages, want %d", n, evictions)
	}
	// A full channel attaches nothing.
	g.send(t, 110*netsim.Microsecond, false)
	g.sim.RunUntil(netsim.Time(200 * netsim.Microsecond))
	if n := st.PendingDigests(); n != evictions {
		t.Fatalf("%d evictions pending after a frame met a full channel, want %d", n, evictions)
	}

	// Carriers every 100 us take each slot a channel drain frees.
	for at := 200 * netsim.Microsecond; at < 10*netsim.Millisecond; at += 100 * netsim.Microsecond {
		g.send(t, at, false)
	}
	g.sim.RunUntil(netsim.Time(10 * netsim.Millisecond))
	pending := st.PendingDigests()
	if pending == 0 || pending == evictions {
		t.Fatalf("%d of %d evictions still pending: want some attached, some not", pending, evictions)
	}
	if n := g.sw.DigestQueueLen(); n > digestChannelRoom {
		t.Fatalf("digest channel holds %d messages, over the room of %d", n, digestChannelRoom)
	}
	g.sw.FlushDigests()

	if len(g.received) != digestChannelRoom+evictions-pending {
		t.Fatalf("CPU received %d messages, want %d foreign + %d evictions", len(g.received), digestChannelRoom, evictions-pending)
	}
	for i, msg := range g.received[:digestChannelRoom] {
		if !bytes.Equal(msg, fillerDigest) {
			t.Fatalf("message %d is %x, want the foreign message", i, msg)
		}
	}
	for i, msg := range g.received[digestChannelRoom:] {
		if !bytes.Equal(msg, want[i]) {
			t.Fatalf("eviction message %d is %x, want %x", i, msg, want[i])
		}
	}

	for pass := 1; pass <= 2; pass++ {
		rep := g.r.Collect()[0]
		if rep.Distinct != evictions {
			t.Fatalf("Collect pass %d: %d keys, want %d", pass, rep.Distinct, evictions)
		}
		for _, res := range rep.Results {
			i := int(res.Key[0]) - 1000
			if res.Value != uint64(3*i+1) {
				t.Fatalf("Collect pass %d: key %d holds %d, want %d", pass, res.Key[0], res.Value, 3*i+1)
			}
		}
	}
	if n := st.PendingDigests(); n != 0 {
		t.Fatalf("%d evictions pending after Collect", n)
	}
}
