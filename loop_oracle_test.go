package hypertester

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/raceflag"
	"github.com/hypertester/hypertester/internal/testbed"
)

// The differential oracle of DESIGN.md §9.6: every randomised testbed runs
// twice — once with the idle oracle deploy installs (template copies that
// provably fire nothing are accounted by asic's loop model) and once with it
// removed (every hop a scheduled event, the simulator as it always was) —
// and everything either run can observe must be equal at every cut point.

// loopSpec is one randomised testbed.
type loopSpec struct {
	seed    int64
	paths   int
	array   int // counter-table array size (small: KV pushes and evictions)
	src     string
	farm    bool
	respPkt int
	cable   netsim.Duration
	cuts    []netsim.Time
}

func (s loopSpec) String() string {
	return fmt.Sprintf("seed %d: %d path(s), array %d, farm %v, cable %v, cuts %v\n%s",
		s.seed, s.paths, s.array, s.farm, s.cable, s.cuts, s.src)
}

func genLoopSpec(seed int64) loopSpec {
	r := rand.New(rand.NewSource(seed))
	s := loopSpec{seed: seed, paths: 1 + r.Intn(2), array: 16 << r.Intn(3)}
	switch r.Intn(4) {
	case 0:
		s.cable = 0
	case 1:
		s.cable = testbed.DefaultCableDelay
	default:
		s.cable = netsim.Duration(r.Intn(300_000)) // any picosecond phase
	}
	length := func() int {
		if r.Intn(2) == 0 {
			return 64
		}
		return 64 + r.Intn(1437)
	}
	interval := func() string {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("%dns", 150+r.Intn(900))
		case 1:
			return fmt.Sprintf("%dns", 1000+r.Intn(5000))
		}
		mean := 400 + r.Intn(3000)
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("random('E', %d, 0)", mean)
		case 1:
			return fmt.Sprintf("random('U', %d, %d)", mean/2, mean*3/2)
		}
		return fmt.Sprintf("random('N', %d, %d)", mean, mean/8)
	}
	var b strings.Builder
	if s.farm = r.Intn(3) == 0; s.farm {
		// The §5.4 web task: one timed SYN stream, three query-triggered
		// stateless templates, a thresholded count.
		s.respPkt = 1 + r.Intn(5)
		first := 1024 + r.Intn(30000)
		fmt.Fprintf(&b, `
T1 = trigger()
    .set([dip, dport, proto, flag, seq_no], [9.9.9.9, 80, tcp, SYN, 1])
    .set(sip, 1.1.0.1)
    .set(sport, range(%d, %d, 1))
    .set(interval, %s)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1)
    .set([dip, sip, dport, sport], [Q1.sip, Q1.dip, Q1.sport, Q1.dport])
    .set([proto, flag], [tcp, ACK])
    .set([seq_no, ack_no], [Q1.ack_no, Q1.seq_no + 1])
Q2 = query().filter(tcp_flag == SYN+ACK)
T3 = trigger(Q2)
    .set([dip, sip, dport, sport], [Q2.sip, Q2.dip, Q2.sport, Q2.dport])
    .set([proto, flag], [tcp, PSH+ACK])
    .set([seq_no, ack_no], [Q2.ack_no, Q2.seq_no + 1])
    .set(length, %d)
    .set(payload, "GET index.html")
Q3 = query().filter(tcp_flag == PSH+ACK).reduce(func=count).filter(count >= %d)
T5 = trigger(Q3)
    .set([dip, sip, dport, sport], [Q3.sip, Q3.dip, Q3.sport, Q3.dport])
    .set([proto, flag], [tcp, FIN])
    .set([seq_no, ack_no], [Q3.ack_no, Q3.seq_no + 1])
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=sum)
`, first, first+4095, interval(), 78+r.Intn(200), s.respPkt)
	} else {
		// Generators against a reflector: timed, random-interval and
		// loop-bounded streams, keyed reductions over 16x oversubscribed
		// tables, and optionally a stateless responder to the echoes.
		n := 1 + r.Intn(3)
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, "T%d = trigger()\n    .set([dip, sip, proto, dport, sport], [9.9.9.%d, 1.1.0.%d, udp, 9, 7])\n", i, i, i)
			if r.Intn(4) == 0 {
				// Loop-bounded: the stream ends inside the run.
				fmt.Fprintf(&b, "    .set(ipv4.id, range(0, %d, 1))\n    .set(loop, 1)\n", 2+r.Intn(12))
			} else {
				fmt.Fprintf(&b, "    .set(ipv4.id, range(0, %d, 1))\n", 255+r.Intn(4096))
			}
			fmt.Fprintf(&b, "    .set(length, %d)\n", length())
			fmt.Fprintf(&b, "    .set(interval, %s)\n    .set(port, 0)\n", interval())
		}
		fmt.Fprintf(&b, "Q1 = query().map(p -> (ipv4.id)).reduce(keys={ipv4.sip, ipv4.id}, func=max)\n")
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "Q2 = query(T1).reduce(func=count, keys={ipv4.id})\n")
		}
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "Q3 = query().filter(udp.dport == 7)\n")
			fmt.Fprintf(&b, "T%d = trigger(Q3)\n    .set([dip, sip], [Q3.sip, Q3.dip])\n    .set([proto, dport, sport], [udp, 11, 12])\n    .set(length, %d)\n", n+1, length())
		}
	}
	s.src = b.String()
	end := netsim.Time(15+r.Intn(30)) * netsim.Time(netsim.Microsecond)
	if raceflag.Enabled {
		end /= 2
	}
	at := netsim.Time(0)
	for at < end {
		at += netsim.Time(r.Int63n(int64(end)/3) + 1)
		s.cuts = append(s.cuts, at)
	}
	return s
}

// loopBed is one built testbed plus the taps both runs carry.
type loopBed struct {
	ht   *Tester
	refl *testbed.Reflector
	farm *testbed.HTTPServerFarm
	peer *testbed.Iface

	// wire hashes every frame the tester puts on the cable: UID, egress
	// stamp, bytes — the per-fire egress timestamps, in order.
	wire uint64
	sent int
	// passes is every (ingress stamp, egress stamp, in-port, template) a
	// template copy showed at an executed ingress pass.
	passes map[[4]int64]bool
}

// cableTap sits between the tester port and the device.
type cableTap struct {
	b     *loopBed
	inner testbed.Attach
}

func (c cableTap) SetPeer(fn func(*netproto.Packet, netsim.Time)) { c.inner.SetPeer(fn) }
func (c cableTap) Deliver(pkt *netproto.Packet) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %x", c.b.wire, pkt.Meta.UID, pkt.Meta.EgressPs, pkt.Data)
	c.b.wire = h.Sum64()
	c.b.sent++
	c.inner.Deliver(pkt)
}

func metaKey(m netproto.Meta) [4]int64 {
	return [4]int64{m.IngressPs, m.EgressPs, int64(m.InPort), int64(m.TemplateID)}
}

func buildLoopBed(t testing.TB, s loopSpec, elide bool) *loopBed {
	b := &loopBed{passes: map[[4]int64]bool{}}
	b.ht = New(Config{Ports: []float64{100}, Seed: s.seed, RecircPaths: s.paths,
		Compiler: compiler.Options{ArraySize: s.array}})
	if err := b.ht.LoadTaskSource("loop", s.src); err != nil {
		t.Fatalf("%v\n%v", err, s)
	}
	if !elide {
		b.ht.Switch.SetIdleOracle(nil)
	}
	b.tapPasses()
	if s.farm {
		b.farm = testbed.NewHTTPServerFarm(b.ht.Sim, "farm", 100)
		b.farm.ResponsePackets = s.respPkt
		b.peer = b.farm.Iface
	} else {
		b.refl = testbed.NewReflector(b.ht.Sim, "refl", 100)
		b.peer = b.refl.Iface
	}
	testbed.Connect(b.ht.Sim, b.ht.Port(0), cableTap{b, b.peer}, s.cable)
	if err := b.ht.Start(); err != nil {
		t.Fatal(err)
	}
	return b
}

// tapPasses appends the pass recorder to the ingress pipeline (again after
// every deploy, which rebuilds the pipelines).
func (b *loopBed) tapPasses() {
	b.ht.Switch.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		if p.Meta.TemplateID != 0 {
			b.passes[metaKey(p.Meta)] = true
		}
	}))
}

func dumpRegs(w *strings.Builder, regs []*asic.RegisterArray) {
	for _, r := range regs {
		h := fnv.New64a()
		fmt.Fprint(h, r.Snapshot(0, r.Size()))
		fmt.Fprintf(w, "  reg %s accesses %d cells %x\n", r.Name, r.Accesses, h.Sum64())
	}
}

// observe renders everything observable at a run boundary. It consumes one
// draw of every random stream, which both runs do at the same instants.
func (b *loopBed) observe(final bool) string {
	var w strings.Builder
	// lines renders what devices' walks record, one metric a line.
	lines := func(describe func(r *obs.Registry)) {
		r := obs.NewRegistry()
		describe(r)
		for _, m := range r.All() {
			fmt.Fprintf(&w, "%s %s\n", m.Name, m.Text)
		}
	}
	sw := b.ht.Switch
	lines(func(r *obs.Registry) {
		sw.Port(0).Describe(r, "port0")
		for i := 0; i < sw.RecircPaths(); i++ {
			sw.Port(asic.RecircPortBase+i).Describe(r, fmt.Sprintf("recirc%d", i))
		}
	})
	fmt.Fprintf(&w, "pipeline ingress %d egress %d drops %d noroute %d digests %d/%d queued %d\n",
		sw.Ingress.Packets, sw.Egress.Packets, sw.PipelineDrops, sw.NoRouteDrops,
		sw.DigestsSent, sw.DigestDrops, sw.DigestQueueLen())
	loop, mcast := sw.NextJitterDraws()
	fmt.Fprintf(&w, "draws loop %d mcast %d\n", loop, mcast)
	for _, tm := range b.ht.Program.Templates {
		st := b.ht.Sender.State(tm.ID)
		fmt.Fprintf(&w, "template %d fired %d editor draw %d\n", tm.ID, st.Fired, st.NextEditorDraw())
		dumpRegs(&w, st.Registers())
	}
	for _, st := range b.ht.Receiver.States() {
		fmt.Fprintf(&w, "query %d matches %d bytes %d pushed %d pending %d\n", st.Plan.ID, st.Matches,
			st.MatchedBytes, st.RecordsPushed, st.PendingDigests())
		if f := st.TriggerFIFO; f != nil {
			fmt.Fprintf(&w, "  trigger fifo pushed %d popped %d overflows %d len %d\n", f.Pushed, f.Popped, f.Overflows, f.Len())
		}
		if ct := st.Table; ct != nil {
			fmt.Fprintf(&w, "  table updates %d exact %d push %d drain %d drop %d evict %d unattr %d kv %d\n", ct.Updates,
				ct.ExactHits, ct.FIFOPushes, ct.FIFODrains, ct.FIFODrops, ct.Evictions, ct.Unattributed, ct.FIFOLen())
		}
		dumpRegs(&w, st.Registers())
	}
	fmt.Fprintf(&w, "wire %d frames %x peer rx %d/%d tx %d/%d cpu digest bytes %d\n", b.sent, b.wire,
		b.peer.RxPackets, b.peer.RxBytes, b.peer.TxPackets, b.peer.TxBytes, b.ht.CPU.DigestBytes)
	if f := b.farm; f != nil {
		lines(func(r *obs.Registry) { f.Describe(r, "farm") })
		fmt.Fprintf(&w, "farm unexpected %d\n", f.UnexpectedPkts)
	}
	if refl := b.refl; refl != nil {
		lines(func(r *obs.Registry) { refl.Describe(r, "reflector") })
	}
	if final {
		// Reports drain the FIFOs and the digest channel: last of all.
		for _, rep := range b.ht.Reports() {
			fmt.Fprintf(&w, "report %s %d %d %d %d %v\n", rep.Query, rep.Matches, rep.Bytes, rep.Distinct, rep.DelaySamples, rep.Results)
		}
	}
	return w.String()
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			other := "<missing>"
			if i < len(lb) {
				other = lb[i]
			}
			return fmt.Sprintf("line %d:\n  elided:   %s\n  unelided: %s", i, la[i], other)
		}
	}
	return "unelided run has extra lines"
}

// runLoopDifferential runs one spec both ways and compares at every cut.
// after, when set, runs on both testbeds once cut i has been compared — the
// place to attach a trace or load another task mid-run (it must leave the
// unelided testbed unelided). It returns the elided testbed.
func runLoopDifferential(t *testing.T, s loopSpec, after func(i int, b *loopBed, elided bool)) *loopBed {
	t.Helper()
	el := buildLoopBed(t, s, true)
	un := buildLoopBed(t, s, false)
	var copies [][4]int64
	for i, cut := range s.cuts {
		final := i == len(s.cuts)-1
		el.ht.Sim.RunUntil(cut)
		un.ht.Sim.RunUntil(cut)
		el.ht.Switch.LoopCopies(func(pkt *netproto.Packet) { copies = append(copies, metaKey(pkt.Meta)) })
		a, b := el.observe(final), un.observe(final)
		if a != b {
			t.Fatalf("cut %d at %v: runs differ, %s\n%v", i, cut, firstDiff(a, b), s)
		}
		if after != nil && !final {
			after(i, el, true)
			after(i, un, false)
		}
	}
	// Every stamp a circulating copy carried — in the model at a cut, or at
	// an executed pass — is one the unelided run saw on the same copy's
	// pass (run on a little, so passes that were in flight at the last cut
	// have been seen).
	un.ht.RunFor(3 * netsim.Microsecond)
	for _, k := range copies {
		if !un.passes[k] {
			t.Fatalf("modelled copy carried stamps %v no pass of the unelided run showed\n%v", k, s)
		}
	}
	for k := range el.passes {
		if !un.passes[k] {
			t.Fatalf("executed pass showed stamps %v no pass of the unelided run showed\n%v", k, s)
		}
	}
	if un.ht.Switch.LoopStats().ElidedPasses != 0 {
		t.Fatalf("reference run elided passes")
	}
	return el
}

// TestLoopElisionDifferential is the property test: 500 randomised testbeds
// (1–4 templates mixing timed, random-interval, loop-bounded and
// query-triggered stateless ones; 1–2 recirculation paths; 64–1500 B frames;
// reflector and server-farm peers; random cut points), each identical with
// and without elision at every cut.
func TestLoopElisionDifferential(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	var total asic.LoopStats
	for seed := int64(1); seed <= int64(n); seed++ {
		st := runLoopDifferential(t, genLoopSpec(seed), nil).ht.Switch.LoopStats()
		total.ElidedPasses += st.ElidedPasses
		total.Wakes += st.Wakes
		total.LiveHops += st.LiveHops
		total.Ties += st.Ties
		total.ResidualTies += st.ResidualTies
	}
	t.Logf("%d testbeds: %d passes elided, %d live hops, %d wakes, %d same-picosecond ties (%d residual)",
		n, total.ElidedPasses, total.LiveHops, total.Wakes, total.Ties, total.ResidualTies)
	if total.ElidedPasses == 0 {
		t.Fatal("no pass was elided: the oracle never engaged")
	}
	if total.Ties == 0 {
		t.Fatal("no same-picosecond tie was exercised: the ordering rule went untested")
	}
}

// tieTask is a 12 us probe stream answered statelessly: the reflector's echo
// of a T1 probe (dport 7 on the way back) triggers one T2 response.
const tieTask = `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.1, 1.1.0.1, udp, 9, 7])
    .set(interval, 12us)
    .set(port, 0)
Q1 = query().filter(udp.dport == 7)
T2 = trigger(Q1)
    .set([dip, sip], [Q1.sip, Q1.dip])
    .set([proto, dport, sport], [udp, 11, 12])
`

// TestLoopElisionFrontPanelTie builds the tie the ordering rule exists for:
// the echo of T1's second probe enters the ingress pipeline in the very
// picosecond an idle T2 copy does. Both events were scheduled 170 ns
// earlier, so (at, schedAt) cannot tell them apart; their parents can — the
// copy's transmit ran one wire time before its wire end, the echo's cable hop
// was scheduled one cable delay before arrival. A cable shorter than the
// wire time puts the copy first (it recirculates and the next copy answers),
// a longer one the echo (the tied copy answers). The cable is tuned on the
// unelided run; the elided run must resolve the tie the same way.
func TestLoopElisionFrontPanelTie(t *testing.T) {
	type pass struct {
		at   netsim.Time
		tmpl int
	}
	// passesOf runs the unelided testbed and lists every ingress pass.
	passesOf := func(s loopSpec) []pass {
		b := buildLoopBed(t, s, false)
		var out []pass
		b.ht.Switch.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
			out = append(out, pass{b.ht.Sim.Now(), p.Meta.TemplateID})
		}))
		b.ht.RunFor(20 * netsim.Microsecond)
		return out
	}
	for _, tc := range []struct {
		name      string
		cable     netsim.Duration
		copyFirst bool
	}{
		{"cable shorter than the wire time", netsim.Nanosecond, true},
		{"cable longer than the wire time", 60 * netsim.Nanosecond, false},
	} {
		s := loopSpec{seed: 3, paths: 1, array: 64, src: tieTask, cable: tc.cable,
			cuts: []netsim.Time{netsim.Time(13 * netsim.Microsecond), netsim.Time(20 * netsim.Microsecond)}}
		// The echo of the second probe is the first front-panel pass after
		// 13 us; the loop is full by then. Move the cable so it lands on
		// the next T2 pass (both cable directions move, so the gap must be
		// even — else take the pass after).
		var echo, target netsim.Time
		for _, p := range passesOf(s) {
			if echo == 0 && p.tmpl == 0 && p.at > netsim.Time(13*netsim.Microsecond) {
				echo = p.at
			}
			if echo != 0 && p.tmpl == 2 && p.at >= echo && (p.at-echo)%2 == 0 {
				target = p.at
				break
			}
		}
		if target == 0 {
			t.Fatalf("%s: no T2 pass to aim the echo at", tc.name)
		}
		s.cable += netsim.Duration(target-echo) / 2
		var tied []int
		for _, p := range passesOf(s) {
			if p.at == target {
				tied = append(tied, p.tmpl)
			}
		}
		want := []int{0, 2}
		if tc.copyFirst {
			want = []int{2, 0}
		}
		if fmt.Sprint(tied) != fmt.Sprint(want) {
			t.Fatalf("%s (cable %v): unelided passes at %v ran in order %v, want %v", tc.name, s.cable, target, tied, want)
		}
		if st := runLoopDifferential(t, s, nil).ht.Switch.LoopStats(); st.Ties == 0 {
			t.Fatalf("%s: the elided run met no same-picosecond tie", tc.name)
		}
	}
}
