package asic_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/testbed"
)

// The TX-path oracle (DESIGN.md §9.7, `make tx-oracle`). A front-panel frame's
// egress → MAC hop is computed at egress end instead of scheduled; these tests
// hold what the port then does — when each frame's last bit leaves, which
// frames are tail-dropped and when, what every counter reads at any instant,
// and the slot each serialization end takes among the events of its
// picosecond — to a reference that knows nothing of events, to a record
// sequence taken before the change, and to itself across engines.

// pipeToMAC is the fixed latency from a frame's wire arrival to the moment it
// reaches the egress MAC: ingress, traffic manager, egress and MAC transmit.
const pipeToMAC = (asic.IngressLatencyNs + asic.TMLatencyNs + asic.EgressLatencyNs + asic.MACTxLatencyNs) * netsim.Nanosecond

// txFrame is one scripted frame: it arrives on port in at time at and is
// forwarded to port out.
type txFrame struct {
	at            netsim.Time
	in, out, size int
}

// txRig is a forwarding switch driven by a script of frames.
type txRig struct {
	gbps    []float64
	backlog []netsim.Duration // per port; 0 = the switch default
	frames  []txFrame         // sorted by arrival time
}

// txFate is what the reference FIFO says happens to one frame.
type txFate struct {
	tx, end netsim.Time // MAC arrival; serialization end (sent frames)
	dropped bool
}

// reference is the whole TX model, per port, from arrival times alone: a frame
// reaches the MAC a fixed latency after it arrived, starts when the port is
// free, is dropped if that is further away than the backlog bound, and
// otherwise holds the port for its wire time.
func (r *txRig) reference() []txFate {
	busy := make([]netsim.Time, len(r.gbps))
	fates := make([]txFate, len(r.frames))
	for i, f := range r.frames {
		tx := f.at.Add(pipeToMAC)
		start := max(busy[f.out], tx)
		bound := r.backlog[f.out]
		if bound == 0 {
			bound = asic.DefaultMaxBacklog
		}
		if start.Sub(tx) > bound {
			fates[i] = txFate{tx: tx, dropped: true}
			continue
		}
		end := start.Add(netsim.Ns(netproto.WireTimeNs(f.size, r.gbps[f.out])))
		busy[f.out] = end
		fates[i] = txFate{tx: tx, end: end}
	}
	return fates
}

// randomRig draws ports of mixed rates and backlog bounds and a script of
// bursts, many of them faster than the port they target.
func randomRig(seed int64) *txRig {
	rng := netsim.NewRNG(seed, "tx-oracle")
	r := &txRig{}
	for n := 2 + rng.Intn(4); len(r.gbps) < n; {
		r.gbps = append(r.gbps, []float64{10, 40, 100}[rng.Intn(3)])
		r.backlog = append(r.backlog, []netsim.Duration{0, 3 * netsim.Microsecond, 700 * netsim.Nanosecond}[rng.Intn(3)])
	}
	for bursts := 4 + rng.Intn(8); bursts > 0; bursts-- {
		at := netsim.Time(rng.Int63n(int64(20 * netsim.Microsecond)))
		out := rng.Intn(len(r.gbps))
		for k := 1 + rng.Intn(40); k > 0; k-- {
			size := 64 + rng.Intn(1518-64+1)
			if rng.Intn(3) == 0 {
				size = 64
			}
			r.frames = append(r.frames, txFrame{at: at, in: rng.Intn(len(r.gbps)), out: out, size: size})
			at = at.Add(netsim.Duration(rng.Int63n(int64(150 * netsim.Nanosecond))))
		}
	}
	sort.SliceStable(r.frames, func(i, j int) bool { return r.frames[i].at < r.frames[j].at })
	return r
}

// delivery is one frame as the far end of a port sees it.
type delivery struct {
	uid      uint64
	port     int
	at       netsim.Time
	egressPs int64
}

// build makes the switch, schedules the script (frame i carries UID i+1) and
// returns it with the log its port peers append to.
func (r *txRig) build(t *testing.T, sim *netsim.Sim) (*asic.Switch, *[]delivery) {
	t.Helper()
	sw := asic.New(asic.Config{Name: "txrig", Sim: sim, PortGbps: r.gbps, Seed: 1})
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		p.EgressPort = int(asic.FieldUDPDstPort.Get(p))
	}))
	log := new([]delivery)
	for id := range r.gbps {
		id := id
		sw.Port(id).MaxBacklog = r.backlog[id]
		sw.Port(id).SetPeer(func(pkt *netproto.Packet, at netsim.Time) {
			*log = append(*log, delivery{pkt.Meta.UID, id, at, pkt.Meta.EgressPs})
		})
	}
	for i, f := range r.frames {
		raw, err := netproto.BuildUDP(netproto.UDPSpec{
			SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
			SrcPort: 7, DstPort: uint16(f.out), FrameLen: f.size,
		})
		if err != nil {
			t.Fatal(err)
		}
		pkt := &netproto.Packet{Data: raw}
		pkt.Meta.UID = uint64(i + 1)
		in := sw.Port(f.in)
		sim.At(f.at, func() { in.Receive(pkt) })
	}
	return sw, log
}

// walkPorts is the ports' counters as the oracle compares them: what each
// port's walk records, under port<i>.
func walkPorts(ports ...*asic.Port) []obs.Metric {
	r := obs.NewRegistry()
	for i, pt := range ports {
		pt.Describe(r, fmt.Sprintf("port%d", i))
	}
	return r.All()
}

// switchPorts walks every front-panel port of sw.
func switchPorts(sw *asic.Switch) []obs.Metric {
	var ports []*asic.Port
	for id := 0; id < sw.NumPorts(); id++ {
		ports = append(ports, sw.Port(id))
	}
	return walkPorts(ports...)
}

// expectedCounts is what the reference says every port's walk reads at time
// now: it fills the counters of ports that never ran and walks them.
func (r *txRig) expectedCounts(fates []txFate, now netsim.Time) []obs.Metric {
	want := make([]asic.Port, len(r.gbps))
	for i, f := range r.frames {
		if f.at <= now {
			want[f.in].RxPackets++
			want[f.in].RxBytes += uint64(f.size)
		}
		switch ft := fates[i]; {
		case ft.dropped && ft.tx <= now:
			want[f.out].TxDrops++
		case !ft.dropped && ft.end <= now:
			want[f.out].TxPackets++
			want[f.out].TxBytes += uint64(f.size)
		}
	}
	ports := make([]*asic.Port, len(want))
	for i := range want {
		ports[i] = &want[i]
	}
	return walkPorts(ports...)
}

// (a) TestTxPathMatchesReferenceFIFO: randomized switches against the
// reference, frame by frame and — the point — counter by counter at cuts 50 ns
// apart, most of which fall between some frame's egress end and the instant it
// reaches the MAC.
func TestTxPathMatchesReferenceFIFO(t *testing.T) {
	var frames, drops, queued int
	for seed := int64(1); seed <= 60; seed++ {
		r := randomRig(seed)
		fates := r.reference()
		sim := netsim.New()
		sw, log := r.build(t, sim)
		last := r.frames[len(r.frames)-1].at.Add(pipeToMAC)
		for _, ft := range fates {
			last = max(last, ft.end)
		}
		for now := netsim.Time(0); now <= last.Add(100*netsim.Nanosecond); now = now.Add(50 * netsim.Nanosecond) {
			sim.RunUntil(now)
			want := r.expectedCounts(fates, now)
			for i, got := range switchPorts(sw) {
				if got != want[i] {
					t.Fatalf("seed %d, cut %v, ports %v Gbps: %s = %s, reference %s", seed, now, r.gbps, got.Name, got.Text, want[i].Text)
				}
			}
		}
		var want []delivery
		for i, ft := range fates {
			frames++
			if ft.dropped {
				drops++
				continue
			}
			if ft.end.Sub(ft.tx) > netsim.Ns(netproto.WireTimeNs(r.frames[i].size, r.gbps[r.frames[i].out])) {
				queued++
			}
			want = append(want, delivery{uint64(i + 1), r.frames[i].out, ft.end, int64(ft.end)})
		}
		got := append([]delivery(nil), *log...)
		byEnd := func(ds []delivery) {
			sort.SliceStable(ds, func(i, j int) bool {
				if ds[i].at != ds[j].at {
					return ds[i].at < ds[j].at
				}
				return ds[i].uid < ds[j].uid
			})
		}
		byEnd(got)
		byEnd(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: deliveries differ from the reference\n got %v\nwant %v", seed, got, want)
		}
	}
	if drops == 0 || queued == 0 || drops == frames {
		t.Fatalf("scripts too tame: %d frames, %d queued behind another, %d tail-dropped", frames, queued, drops)
	}
	t.Logf("%d frames, %d queued behind another, %d tail-dropped", frames, queued, drops)
}

// (b) TestTxPathSamePicosecond: constructed ties. Serialization ends that
// coincide on two ports deliver in egress order; a serialization end keeps the
// slot its transmit event's stamp gives it against a foreign event of the same
// picosecond; and a tail-dropped frame between two sent ones books nothing.
func TestTxPathSamePicosecond(t *testing.T) {
	run := func(r *txRig, foreign func(sw *asic.Switch, log *[]string)) []string {
		sim := netsim.New()
		sw, _ := r.build(t, sim)
		var log []string
		for id := range r.gbps {
			id := id
			sw.Port(id).SetPeer(func(pkt *netproto.Packet, at netsim.Time) {
				log = append(log, fmt.Sprintf("wire %d uid %d at %v", id, pkt.Meta.UID, at))
			})
		}
		if foreign != nil {
			foreign(sw, &log)
		}
		sim.Run()
		return log
	}
	expect := func(name string, got []string, want ...string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
	const wire64at100 = 6400 * netsim.Picosecond
	wire64at10 := netsim.Ns(netproto.WireTimeNs(64, 10))
	end := netsim.Time(0).Add(pipeToMAC + wire64at10)

	// Same egress instant, same wire time: schedule order decides, both ways.
	two := &txRig{gbps: []float64{100, 100, 100}, backlog: make([]netsim.Duration, 3)}
	first := netsim.Time(0).Add(pipeToMAC + wire64at100)
	two.frames = []txFrame{{0, 0, 1, 64}, {0, 2, 2, 64}}
	expect("same egress, ports 1 then 2", run(two, nil),
		fmt.Sprintf("wire 1 uid 1 at %v", first), fmt.Sprintf("wire 2 uid 2 at %v", first))
	two.frames = []txFrame{{0, 0, 2, 64}, {0, 2, 1, 64}}
	expect("same egress, ports 2 then 1", run(two, nil),
		fmt.Sprintf("wire 2 uid 1 at %v", first), fmt.Sprintf("wire 1 uid 2 at %v", first))

	// A 10G frame and a 100G frame that left egress later, ending together.
	mixed := &txRig{gbps: []float64{100, 100, 10}, backlog: make([]netsim.Duration, 3)}
	mixed.frames = []txFrame{{0, 0, 2, 64}, {netsim.Time(wire64at10 - wire64at100), 0, 1, 64}}
	expect("ends coincide across rates", run(mixed, nil),
		fmt.Sprintf("wire 2 uid 1 at %v", end), fmt.Sprintf("wire 1 uid 2 at %v", end))

	// A foreign event of the serialization end's picosecond, scheduled after
	// the frame's egress ran and before it reached the MAC: an ingress pass
	// (scheduled one ingress latency ahead). The transmit event would have
	// scheduled the serialization end later than that, so the pass runs first.
	tie := &txRig{gbps: []float64{100, 100, 100}, backlog: make([]netsim.Duration, 3)}
	arrive := first.Add(-asic.IngressLatencyNs * netsim.Nanosecond)
	tie.frames = []txFrame{{0, 0, 1, 64}, {arrive, 2, 2, 1518}}
	got := run(tie, func(sw *asic.Switch, log *[]string) {
		sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
			if p.Meta.InPort == 2 {
				*log = append(*log, fmt.Sprintf("ingress uid %d at %v", p.Meta.UID, sw.Sim().Now()))
			}
		}))
	})
	expect("ingress pass against a serialization end", got[:2],
		fmt.Sprintf("ingress uid 2 at %v", first), fmt.Sprintf("wire 1 uid 1 at %v", first))

	// Tail drop between two sent frames: 1518 B at 10G holds the port for
	// 1227.2 ns; 100 ns behind it the backlog is over the 1 us bound, 300 ns
	// behind it no longer. The third frame starts where the first ended.
	drop := &txRig{gbps: []float64{100, 10}, backlog: []netsim.Duration{0, netsim.Microsecond}}
	drop.frames = []txFrame{{0, 0, 1, 1518}, {netsim.Time(100 * netsim.Nanosecond), 0, 1, 1000}, {netsim.Time(300 * netsim.Nanosecond), 0, 1, 64}}
	sim := netsim.New()
	sw, log := drop.build(t, sim)
	dropAt := netsim.Time(100 * netsim.Nanosecond).Add(pipeToMAC)
	sim.RunUntil(dropAt - 1)
	if n := sw.Port(1).TxDrops; n != 0 {
		t.Errorf("tail drop counted %v early: TxDrops %d one picosecond before the frame reaches the MAC", pipeToMAC, n)
	}
	sim.RunUntil(dropAt)
	if n := sw.Port(1).TxDrops; n != 1 {
		t.Errorf("TxDrops %d when the frame reaches the MAC, want 1", n)
	}
	sim.Run()
	end1 := netsim.Time(0).Add(pipeToMAC + netsim.Ns(netproto.WireTimeNs(1518, 10)))
	want := []delivery{{1, 1, end1, int64(end1)}, {3, 1, end1.Add(wire64at10), int64(end1.Add(wire64at10))}}
	if !reflect.DeepEqual(*log, want) {
		t.Errorf("a dropped frame moved the port's busy time:\n got %v\nwant %v", *log, want)
	}
}

// tracedSequence is the sha256 of every trace record of tracedRig's run, in
// emission order, taken at the commit before the MAC hop was folded (where
// each frame's serialization end was scheduled by a transmit event of its
// own).
const tracedSequence = "c70db1171ecef4caaece2bceb4be905a84db37227b3636a0d7f21158422a0966"

// tracedRig is randomRig(3) — bursts, queues, tail drops — followed, once its
// ports have drained, by the constructed tie of TestTxPathSamePicosecond: a
// frame whose ingress pass (a parse record) runs on the picosecond of another
// frame's serialization end (a wire_tx record), scheduled before that frame
// reached the MAC and after its egress ran.
func tracedRig() *txRig {
	r := randomRig(3)
	quiet := netsim.Time(200 * netsim.Microsecond)
	end := quiet.Add(pipeToMAC + netsim.Ns(netproto.WireTimeNs(64, r.gbps[1])))
	r.frames = append(r.frames,
		txFrame{quiet, 0, 1, 64},
		txFrame{end.Add(-asic.IngressLatencyNs * netsim.Nanosecond), 1, 0, 512})
	return r
}

// (c) TestTxPathTracedEqualsUntraced: one path. A traced switch and an
// untraced one count and deliver the same, and the traced one's record
// sequence — wire_tx at serialization end, a tail drop's record when the frame
// reaches the MAC, each in its slot among the records of other frames — is the
// one recorded before the change.
func TestTxPathTracedEqualsUntraced(t *testing.T) {
	r := tracedRig()
	type outcome struct {
		counts     []obs.Metric
		deliveries []delivery
	}
	run := func(tr *obs.Trace) outcome {
		sim := netsim.New()
		sw, log := r.build(t, sim)
		sw.SetTrace(tr)
		sim.Run()
		return outcome{switchPorts(sw), *log}
	}
	tr := obs.NewTraceSet().New("txrig")
	traced, untraced := run(tr), run(nil)
	if !reflect.DeepEqual(traced, untraced) {
		t.Fatalf("traced and untraced runs differ:\n traced %+v\nuntraced %+v", traced, untraced)
	}
	h := sha256.New()
	var drops, sent int
	for _, rec := range tr.Records() {
		fmt.Fprintf(h, "%d %d %d %s %d %d\n", rec.At, rec.Kind, rec.UID, rec.Label, rec.Arg, rec.Arg2)
		switch rec.Kind {
		case obs.KindDrop:
			drops++
		case obs.KindWireTx:
			sent++
		}
	}
	if drops == 0 || sent == 0 {
		t.Fatalf("the traced script has %d tail drops and %d sent frames; it must have both", drops, sent)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != tracedSequence {
		t.Fatalf("trace record sequence %s, recorded before the change %s", got, tracedSequence)
	}
}

// (d) TestTxPathEventsPerFrame: the events pin. A template circling the
// recirculation loop and multicast to four front-panel ports, each cabled to a
// sink, costs four loop hops per pass and, per emitted frame, three events:
// egress, serialization end, cable arrival — 4.0 per frame with the loop's
// share. A MAC hop scheduled again makes it 5.0.
func TestTxPathEventsPerFrame(t *testing.T) {
	const passes = 1000
	sim := netsim.New()
	sw := asic.New(asic.Config{Name: "gen", Sim: sim, PortGbps: []float64{100, 100, 100, 100}, Seed: 1})
	copies := []asic.CopySpec{{Port: asic.RecircPortBase, Rid: 0}}
	var sinks []*testbed.Sink
	for id := 0; id < sw.NumPorts(); id++ {
		copies = append(copies, asic.CopySpec{Port: id, Rid: id + 1})
		s := testbed.NewSink(sim, fmt.Sprintf("sink%d", id), 100)
		testbed.Connect(sim, sw.Port(id), s.Iface, testbed.DefaultCableDelay)
		sinks = append(sinks, s)
	}
	if err := sw.Mcast.SetGroup(1, copies); err != nil {
		t.Fatal(err)
	}
	fired := 0
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		if fired == passes {
			p.Drop = true
			return
		}
		fired++
		p.McastGroup = 1
	}))
	raw, err := netproto.BuildUDP(netproto.UDPSpec{
		SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"), SrcPort: 1, DstPort: 2, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.InjectFromCPU(&netproto.Packet{Data: raw})
	sim.Run()
	var frames uint64
	for _, s := range sinks {
		frames += s.Packets
	}
	if frames != 4*passes {
		t.Fatalf("sinks saw %d frames, want %d", frames, 4*passes)
	}
	// One event injects the template; its last pass drops it.
	if got, want := sim.Executed-1, 4*frames; got != want {
		t.Fatalf("%d events for %d emitted frames (%.2f per frame), want exactly 4.0", got, frames, float64(got)/float64(frames))
	}
}

// (e) TestTxPathWorkersDeterminism: a switch whose ports are partitioned in
// both directions — a source feeds it, it feeds a jittery reflector, the
// bounce comes back through it — reads the same at every cut with 1, 2 and 4
// workers, the channels out of its ports claiming the egress + MAC latency as
// lookahead.
func TestTxPathWorkersDeterminism(t *testing.T) {
	type snapshot struct {
		Cuts      [][]obs.Metric
		SrcRx     uint64
		SrcTimes  []int64
		Reflected uint64
	}
	run := func(workers int) snapshot {
		p := testbed.NewPartition(workers)
		src := testbed.NewIface(p.LP("src"), "src", 40)
		sw := testbed.NewForwardingDUT(p.LP("tester"), "tester", []float64{100, 40}, map[int]int{1: 0, 0: 1}, 7)
		refl := testbed.NewReflector(p.LP("refl"), "refl", 100)
		refl.ExtraDelay = 150 * netsim.Nanosecond
		refl.ExtraJitter = 400 * netsim.Nanosecond
		p.Connect(src, sw.Port(1), testbed.DefaultCableDelay)
		p.Connect(sw.Port(0), refl.Iface, 20*netsim.Nanosecond)
		var snap snapshot
		src.OnReceive(func(pkt *netproto.Packet) {
			snap.SrcRx++
			snap.SrcTimes = append(snap.SrcTimes, pkt.Meta.IngressPs)
			pkt.Release()
		})
		rng := netsim.NewRNG(11, "tx-workers")
		at := netsim.Time(0).Add(netsim.Microsecond)
		for i := 0; i < 300; i++ {
			raw, err := netproto.BuildUDP(netproto.UDPSpec{
				SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
				SrcPort: uint16(1000 + i), DstPort: 9, FrameLen: 64 + rng.Intn(8)*128,
			})
			if err != nil {
				t.Fatal(err)
			}
			src.Sim().At(at, func() { src.Send(&netproto.Packet{Data: raw}) })
			at = at.Add(netsim.Duration(rng.Int63n(int64(250 * netsim.Nanosecond))))
		}
		for now := netsim.Time(0); now < at.Add(5*netsim.Microsecond); now = now.Add(137 * netsim.Nanosecond) {
			p.RunUntil(now)
			snap.Cuts = append(snap.Cuts, switchPorts(sw))
		}
		snap.Reflected = refl.Reflected
		return snap
	}
	want := run(1)
	if want.Reflected != 300 || want.SrcRx != 300 {
		t.Fatalf("sequential run reflected %d and returned %d of 300 frames", want.Reflected, want.SrcRx)
	}
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from the sequential run", w)
		}
	}
}
