package testbed

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/raceflag"
)

// Arrival runs (DESIGN.md §10.6): a switch port cabled to a counting sink on
// another LP accounts the sink's arrivals and carries them across as one
// message per epoch. These tests hold that to the sequential engine, to the
// framed cross-LP path, to its event and message budget, to its mode rule and
// to zero allocations per frame.

// pipeToMAC is the fixed latency from a frame's wire arrival to the moment it
// reaches the egress MAC: ingress, traffic manager, egress and MAC transmit.
const pipeToMAC = (asic.IngressLatencyNs + asic.TMLatencyNs + asic.EgressLatencyNs + asic.MACTxLatencyNs) * netsim.Nanosecond

// mcastOut is the UDP destination port the run rigs replicate to every port.
const mcastOut = 255

// runFrame is one scripted frame: it arrives on port in at time at and leaves
// through port out, or through every port when out is mcastOut.
type runFrame struct {
	at            netsim.Time
	in, out, size int
}

// runRig is a switch on its own LP whose every port is cabled to a sink on an
// LP of its own, driven by a script of frames.
type runRig struct {
	gbps    []float64
	backlog []netsim.Duration // per port; 0 = the switch default
	delays  []netsim.Duration // cable delays
	frames  []runFrame        // sorted by arrival time
}

// randomRunRig draws 10-100 G ports with mixed backlog bounds, cables of 0-20
// ns at any picosecond phase, and bursts of 64-1518 B frames, many faster
// than the port they target, some replicated to every port.
func randomRunRig(seed int64) *runRig {
	rng := netsim.NewRNG(seed, "arrival-runs")
	r := &runRig{}
	for n := 2 + rng.Intn(3); len(r.gbps) < n; {
		r.gbps = append(r.gbps, []float64{10, 40, 100}[rng.Intn(3)])
		r.backlog = append(r.backlog, []netsim.Duration{0, 3 * netsim.Microsecond, 700 * netsim.Nanosecond}[rng.Intn(3)])
		r.delays = append(r.delays, netsim.Duration(rng.Int63n(int64(20*netsim.Nanosecond)+1)))
	}
	for bursts := 4 + rng.Intn(8); bursts > 0; bursts-- {
		at := netsim.Time(rng.Int63n(int64(20 * netsim.Microsecond)))
		out := rng.Intn(len(r.gbps))
		if rng.Intn(4) == 0 {
			out = mcastOut
		}
		for k := 1 + rng.Intn(40); k > 0; k-- {
			size := 64 + rng.Intn(1518-64+1)
			if rng.Intn(3) == 0 {
				size = 64
			}
			r.frames = append(r.frames, runFrame{at: at, in: rng.Intn(len(r.gbps)), out: out, size: size})
			at = at.Add(netsim.Duration(rng.Int63n(int64(150 * netsim.Nanosecond))))
		}
	}
	sort.SliceStable(r.frames, func(i, j int) bool { return r.frames[i].at < r.frames[j].at })
	return r
}

// runBed is a built runRig.
type runBed struct {
	p     *Partition
	ports []*asic.Port
	sinks []*Sink
}

// build wires the rig on workers workers; hooked gives every sink a no-op
// OnPacket before traffic, which keeps every frame a cross-LP message.
func (r *runRig) build(t *testing.T, workers int, hooked bool) *runBed {
	t.Helper()
	b := &runBed{p: NewPartition(workers)}
	sim := b.p.LP("tester")
	sw := asic.New(asic.Config{Name: "tester", Sim: sim, PortGbps: r.gbps, Seed: 1})
	var group []asic.CopySpec
	for id := range r.gbps {
		group = append(group, asic.CopySpec{Port: id, Rid: id + 1})
	}
	if err := sw.Mcast.SetGroup(1, group); err != nil {
		t.Fatal(err)
	}
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		if out := int(asic.FieldUDPDstPort.Get(p)); out == mcastOut {
			p.McastGroup = 1
		} else {
			p.EgressPort = out
		}
	}))
	for id, g := range r.gbps {
		sw.Port(id).MaxBacklog = r.backlog[id]
		name := fmt.Sprintf("sink%d", id)
		s := NewSink(b.p.LP(name), name, g)
		s.RecordTimestamps = true
		if hooked {
			s.OnPacket = func(pkt *netproto.Packet, at netsim.Time) { pkt.Release() }
		}
		b.p.Connect(sw.Port(id), s.Iface, r.delays[id])
		b.ports = append(b.ports, sw.Port(id))
		b.sinks = append(b.sinks, s)
	}
	for _, f := range r.frames {
		raw, err := netproto.BuildUDP(netproto.UDPSpec{
			SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
			SrcPort: 7, DstPort: uint16(f.out), FrameLen: f.size,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := sw.Port(f.in)
		sim.At(f.at, func() { in.Receive(&netproto.Packet{Data: raw}) })
	}
	return b
}

// runView is everything a port and its sink count, read from the fields.
type runView struct {
	Port                  [5]uint64 // Tx packets/bytes, Rx packets/bytes, TxDrops
	IfaceRx, IfaceRxBytes uint64
	Packets, Bytes        uint64
	First, Last           netsim.Time
	Timestamps            []float64
}

func (b *runBed) view() []runView {
	var out []runView
	for i, pt := range b.ports {
		s := b.sinks[i]
		out = append(out, runView{
			Port:    [5]uint64{pt.TxPackets, pt.TxBytes, pt.RxPackets, pt.RxBytes, pt.TxDrops},
			IfaceRx: s.Iface.RxPackets, IfaceRxBytes: s.Iface.RxBytes,
			Packets: s.Packets, Bytes: s.Bytes, First: s.First, Last: s.Last,
			Timestamps: append([]float64(nil), s.Timestamps...),
		})
	}
	return out
}

// TestPartitionSinkRunFold: randomised partitioned rigs whose ports feed
// counting sinks on LPs of their own, at 2 and 4 workers, against the
// sequential engine and against the same rig with a hook on every sink, where
// every frame crosses as a message of its own: port, interface and sink
// counters, First/Last and recorded timestamps at cuts 50 ns apart, after the
// traffic drains, and after a Reset between two runs.
func TestPartitionSinkRunFold(t *testing.T) {
	var frames, drops, received uint64
	for seed := int64(1); seed <= 40; seed++ {
		r := randomRunRig(seed)
		last := r.frames[len(r.frames)-1].at.Add(pipeToMAC + 20*netsim.Microsecond)
		for _, w := range []int{2, 4} {
			seq, runs, framed := r.build(t, 1, false), r.build(t, w, false), r.build(t, w, true)
			for now := netsim.Time(0); now <= last; now = now.Add(50 * netsim.Nanosecond) {
				for _, b := range []*runBed{seq, runs, framed} {
					b.p.RunUntil(now)
				}
				want := seq.view()
				if got := runs.view(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d workers, cut %v, delays %v: arrival runs %+v\nsequential %+v", seed, w, now, r.delays, got, want)
				}
				if got := framed.view(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d workers, cut %v: framed %+v\nsequential %+v", seed, w, now, got, want)
				}
			}
			for _, v := range seq.view() {
				frames += v.Packets
				drops += v.Port[4]
			}
			for _, lp := range runs.p.Engine().Stats().LPs[1:] {
				received += lp.Received
			}

			// A Reset between two runs, cut mid-burst.
			seq, runs, framed = r.build(t, 1, false), r.build(t, w, false), r.build(t, w, true)
			mid := r.frames[len(r.frames)/2].at.Add(pipeToMAC)
			for _, b := range []*runBed{seq, runs, framed} {
				b.p.RunUntil(mid)
				for _, s := range b.sinks {
					s.Reset()
				}
				b.p.RunUntil(last)
			}
			want := seq.view()
			if got := runs.view(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d workers, Reset at %v: arrival runs %+v\nsequential %+v", seed, w, mid, got, want)
			}
			if got := framed.view(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d workers, Reset at %v: framed %+v\nsequential %+v", seed, w, mid, got, want)
			}
		}
	}
	if frames == 0 || drops == 0 {
		t.Fatalf("scripts too tame: %d frames reached a sink, %d tail-dropped", frames, drops)
	}
	t.Logf("%d frames reached a sink, %d tail-dropped, %d messages carried them", frames, drops, received)
}

// lineRig is a template circling the recirculation loop in copies copies,
// multicast on every pass to four 100 G ports, each cabled to a counting sink
// on an LP of its own: the generator's data path without a task.
func lineRig(t *testing.T, workers, copies int, delay netsim.Duration) (*Partition, []*Sink) {
	t.Helper()
	p := NewPartition(workers)
	sw := asic.New(asic.Config{Name: "gen", Sim: p.LP("tester"), PortGbps: []float64{100, 100, 100, 100}, Seed: 1})
	group := []asic.CopySpec{{Port: asic.RecircPortBase, Rid: 0}}
	var sinks []*Sink
	for id := 0; id < sw.NumPorts(); id++ {
		group = append(group, asic.CopySpec{Port: id, Rid: id + 1})
		name := fmt.Sprintf("sink%d", id)
		s := NewSink(p.LP(name), name, 100)
		p.Connect(sw.Port(id), s.Iface, delay)
		sinks = append(sinks, s)
	}
	if err := sw.Mcast.SetGroup(1, group); err != nil {
		t.Fatal(err)
	}
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) { p.McastGroup = 1 }))
	raw, err := netproto.BuildUDP(netproto.UDPSpec{
		SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"), SrcPort: 1, DstPort: 2, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < copies; i++ {
		sw.InjectFromCPU(&netproto.Packet{Data: append([]byte(nil), raw...)})
	}
	return p, sinks
}

func sinkPackets(sinks []*Sink) (n uint64) {
	for _, s := range sinks {
		n += s.Packets
	}
	return n
}

// TestPartitionSinkRunEventsPerFrame: the partitioned twin of asic's
// TestTxPathEventsPerFrame. At line rate to four counting sinks on LPs of
// their own, every LP together runs at most 2.1 events per front-panel frame
// (the sequential engine's 2.02, plus each run's one message event), and the
// sinks receive at most one message per channel per epoch, not one per frame.
func TestPartitionSinkRunEventsPerFrame(t *testing.T) {
	for _, w := range []int{2, 4} {
		p, sinks := lineRig(t, w, asic.AcceleratorCapacity(64), DefaultCableDelay)
		p.RunFor(20 * netsim.Microsecond)
		before, frames0 := p.Engine().Stats(), sinkPackets(sinks)
		p.RunFor(200 * netsim.Microsecond)
		after, frames := p.Engine().Stats(), sinkPackets(sinks)-frames0
		// 200 µs at 6.72 ns per 64 B frame is 29761 frames per port.
		if frames < 4*29000 {
			t.Fatalf("%d workers: sinks saw %d frames in 200 µs, want line rate on four ports", w, frames)
		}
		var events, received uint64
		for i, lp := range after.LPs {
			events += lp.Executed - before.LPs[i].Executed
			if i > 0 {
				received += lp.Received - before.LPs[i].Received
			}
		}
		epochs := after.Epochs - before.Epochs
		if per := float64(events) / float64(frames); per > 2.1 {
			t.Errorf("%d workers: %d events for %d frames (%.3f per frame), want at most 2.1", w, events, frames, per)
		}
		if received > 4*epochs {
			t.Errorf("%d workers: the sinks received %d messages in %d epochs for %d frames, want at most 4 per epoch", w, received, epochs, frames)
		}
		t.Logf("%d workers: %d frames, %.4f events per frame, %d messages in %d epochs", w, frames,
			float64(events)/float64(frames), received, epochs)
	}
}

// TestPartitionSinkRunZeroAllocs: once warm, the arrival-run path allocates
// nothing per frame. The engine's own cost per RunUntil call is constant, so
// a window 20 times longer allocates no more.
func TestPartitionSinkRunZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	p, sinks := lineRig(t, 2, asic.AcceleratorCapacity(64), DefaultCableDelay)
	p.RunFor(20 * netsim.Microsecond)
	short := testing.AllocsPerRun(20, func() { p.RunFor(netsim.Microsecond) })
	before := sinkPackets(sinks)
	long := testing.AllocsPerRun(20, func() { p.RunFor(20 * netsim.Microsecond) })
	frames := sinkPackets(sinks) - before
	if frames < 21*4*2900 {
		t.Fatalf("%d frames in 20 windows of 20 µs, want line rate on four ports", frames)
	}
	if long > short {
		t.Fatalf("%.0f allocations per 20 µs window (%d frames in 20), %.0f per 1 µs window: the run path allocates per frame",
			long, frames, short)
	}
}

// TestPartitionSinkRunModeRule: a partitioned sink's mode is read when a run
// starts (its port never reads the sink from its own LP), so a hook, capture
// or trace installed while accounted arrivals are on their way, between runs
// or by an event on the sink's LP mid-run, panics naming the sink instead of
// missing them; one installed with nothing in flight, or removed, changes
// nothing the sequential engine would not. Run with GOMAXPROCS 4, under the
// race detector in `make tx-oracle`.
func TestPartitionSinkRunModeRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	changes := map[string]func(*Sink){
		"OnPacket": func(s *Sink) { s.OnPacket = func(pkt *netproto.Packet, at netsim.Time) {} },
		"capture":  func(s *Sink) { s.EnableCapture(0) },
		"trace":    func(s *Sink) { s.Iface.SetTrace(obs.NewTraceSet().New("sink")) },
	}
	wantPanic := func(how string, run func()) {
		t.Helper()
		var p any
		func() {
			defer func() { p = recover() }()
			run()
		}()
		msg, _ := p.(string)
		if !strings.Contains(msg, "sink sink1") || !strings.Contains(msg, "before traffic starts") {
			t.Errorf("%s: panic %v, want one naming sink sink1", how, p)
		}
	}
	for name, change := range changes {
		p, sinks := lineRig(t, 4, 8, 20*netsim.Nanosecond)
		p.RunFor(10 * netsim.Microsecond)
		if sinks[1].Packets == 0 {
			t.Fatal("no frame reached the sink")
		}
		change(sinks[1])
		wantPanic(name+" set between runs with arrivals in flight", func() { p.RunFor(netsim.Microsecond) })

		p, sinks = lineRig(t, 4, 8, 20*netsim.Nanosecond)
		s := sinks[1]
		s.sim.At(netsim.Time(5*netsim.Microsecond), func() { change(s) })
		wantPanic(name+" set mid-run on the sink's LP", func() { p.RunFor(10 * netsim.Microsecond) })
	}

	// With nothing in flight, a hook installed between runs sees every later
	// frame, and one removed hands them back to the runs, as on the
	// sequential engine.
	r := &runRig{gbps: []float64{100, 40}, backlog: make([]netsim.Duration, 2), delays: []netsim.Duration{7, 20 * netsim.Nanosecond}}
	for i := 0; i < 90; i++ {
		r.frames = append(r.frames, runFrame{at: netsim.Time(i/30) * netsim.Time(10*netsim.Microsecond), in: 0, out: i % 2, size: 64 + 13*i})
	}
	type result struct {
		View  []runView
		Hooks []int
	}
	run := func(workers int) result {
		b := r.build(t, workers, false)
		var res result
		res.Hooks = make([]int, 2)
		hook := func(i int) func(*netproto.Packet, netsim.Time) {
			return func(pkt *netproto.Packet, at netsim.Time) { res.Hooks[i]++; pkt.Release() }
		}
		b.p.RunUntil(netsim.Time(9 * netsim.Microsecond))
		for i, s := range b.sinks {
			s.OnPacket = hook(i)
		}
		b.p.RunUntil(netsim.Time(19 * netsim.Microsecond))
		for _, s := range b.sinks {
			s.OnPacket = nil
		}
		b.p.RunUntil(netsim.Time(40 * netsim.Microsecond))
		res.View = b.view()
		return res
	}
	want := run(1)
	if want.Hooks[0]+want.Hooks[1] != 30 || want.View[0].Packets+want.View[1].Packets != 90 {
		t.Fatalf("sequential engine: hooks saw %v of the second 30 frames, sinks %d of 90", want.Hooks,
			want.View[0].Packets+want.View[1].Packets)
	}
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: %+v\nsequential %+v", w, got, want)
		}
	}
}
