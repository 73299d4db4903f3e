package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/scenario"
	"github.com/hypertester/hypertester/internal/verify"
)

// kernelRun times each layer's exported functions alone. budget is the
// minimum time one timed kernel runs.
type kernelRun struct {
	budget time.Duration
	smoke  bool // a scaled-down run: the suites run only the parts the metrics name
	e      env
	out    map[string]float64
}

// timeOp calls fn with a growing operation count until one call lasts at
// least the budget, then returns that call's nanoseconds and allocations per
// operation. fn returns how many operations it performed (0 means n). Whole
// suites that run for seconds are timed once instead, inline.
func (k *kernelRun) timeOp(fn func(n int) int) (ns, allocs float64) {
	fn(1) // lazy indexes, pools and caches fill outside the timing
	n := 1
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ops := fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if ops == 0 {
			ops = n
		}
		if d >= k.budget || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		}
		next := n * 100
		if d > 0 {
			if p := int(1.2 * float64(n) * float64(k.budget) / float64(d)); p < next {
				next = p
			}
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
}

// loop is timeOp for a body that does one operation per call.
func (k *kernelRun) loop(body func()) (ns, allocs float64) {
	return k.timeOp(func(n int) int {
		for i := 0; i < n; i++ {
			body()
		}
		return n
	})
}

func runKernels(e env, budget time.Duration) (map[string]float64, error) {
	k := &kernelRun{budget: budget, smoke: e.scale < 1, e: e, out: map[string]float64{}}
	for _, step := range []func() error{
		k.netproto, k.netsim, k.engine, k.tables, k.pipeline, k.frontend,
		k.receiver, k.scenarios, k.observability, k.experiments,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return k.out, nil
}

func udpFrame(size int) ([]byte, error) {
	return netproto.BuildUDP(netproto.UDPSpec{
		SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
		SrcPort: 1, DstPort: 2, FrameLen: size,
	})
}

func (k *kernelRun) netproto() error {
	frame, err := udpFrame(64)
	if err != nil {
		return err
	}
	var st netproto.Stack
	k.out["netproto.decode_ns"], _ = k.loop(func() { err = st.Decode(frame) })
	if err != nil {
		return err
	}

	// UDP behind hop-by-hop, routing, fragment and destination-options
	// headers: the longest chain the decoder walks.
	seg := frame[netproto.EthernetLen+netproto.IPv4MinLen:]
	chain := []byte{netproto.IPProtoIPv6Routing, 0, 0, 0, 0, 0, 0, 0}
	chain = append(chain, netproto.IPProtoIPv6Fragment, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	chain = append(chain, netproto.IPProtoIPv6DestOpts, 0, 0, 0, 0, 0, 0, 1)
	chain = append(chain, netproto.IPProtoUDP, 0, 0, 0, 0, 0, 0, 0)
	v6, err := netproto.Serialize(
		&netproto.Ethernet{EtherType: netproto.EtherTypeIPv6},
		&netproto.IPv6{NextHeader: netproto.IPProtoHopByHop, HopLimit: 64},
		netproto.Payload(append(chain, seg...)))
	if err != nil {
		return err
	}
	k.out["netproto.decode_v6ext_ns"], _ = k.loop(func() { err = st.Decode(v6) })
	if err != nil {
		return err
	}
	if !st.Has(netproto.LayerIPv6Ext) || !st.Has(netproto.LayerUDP) {
		return fmt.Errorf("kernels: v6 extension frame decoded as %v", st.Decoded)
	}

	k.out["netproto.build_udp_ns"], _ = k.loop(func() { _, err = udpFrame(64) })
	return err
}

func (k *kernelRun) netsim() error {
	// One pending event whose firing schedules its successor: `near` lands
	// in the level-0 wheel, `far` (5 ms ahead) in level 3.
	chain := func(gap netsim.Duration) float64 {
		ns, _ := k.timeOp(func(n int) int {
			s := netsim.New()
			left := n
			var step func(any)
			step = func(arg any) {
				if left--; left > 0 {
					s.AtCall(s.Now().Add(gap), step, arg)
				}
			}
			s.AtCall(0, step, nil)
			s.Run()
			return n
		})
		return ns
	}
	k.out["netsim.sched_fire_ns"] = chain(10 * netsim.Picosecond)
	k.out["netsim.sched_far_ns"] = chain(5 * netsim.Millisecond)

	s := netsim.New()
	nop := func(any) {}
	k.out["netsim.cancel_ns"], _ = k.loop(func() { s.Cancel(s.AtCall(s.Now().Add(netsim.Microsecond), nop, nil)) })
	return nil
}

// engine times the LP engine alone on two LPs joined by 100 ns channels:
// an epoch with one local event per LP, and a message bounced between them.
func (k *kernelRun) engine() error {
	const la = 100 * netsim.Nanosecond
	build := func() (*netsim.Engine, *netsim.Sim, *netsim.Sim) {
		eng := netsim.NewEngine(2)
		a, b := eng.NewLP("a"), eng.NewLP("b")
		eng.Channel(a, b, la)
		eng.Channel(b, a, la)
		return eng, a, b
	}

	k.out["netsim.engine_epoch_ns"], _ = k.timeOp(func(n int) int {
		eng, a, b := build()
		for _, lp := range []*netsim.Sim{a, b} {
			lp := lp
			var tick func(any)
			tick = func(arg any) { lp.AtCall(lp.Now().Add(la), tick, arg) }
			lp.AtCall(0, tick, nil)
		}
		eng.RunFor(netsim.Duration(n) * la)
		return int(eng.Stats().Epochs)
	})

	k.out["netsim.engine_xlp_ns"], _ = k.timeOp(func(n int) int {
		eng, a, b := build()
		var toA, toB func(any)
		toB = func(arg any) { b.PostRemote(a, b.Now().Add(la), b.Now(), toA, arg) }
		toA = func(arg any) { a.PostRemote(b, a.Now().Add(la), a.Now(), toB, arg) }
		a.AtCall(0, toA, nil)
		eng.RunFor(netsim.Duration(n) * la)
		st := eng.Stats()
		return int(st.LPs[0].Sent + st.LPs[1].Sent)
	})
	return nil
}

func (k *kernelRun) tables() error {
	const entries = 1000
	frame, err := udpFrame(64)
	if err != nil {
		return err
	}
	phv := asic.NewPHV(&netproto.Packet{Data: frame})
	hits := 0
	apply := func(t *asic.Table, f asic.Field, key func(i int) uint64) (float64, error) {
		i := 0
		hits = 0
		ns, _ := k.loop(func() {
			f.Set(phv, key(i%entries))
			if t.Apply(phv) {
				hits++
			}
			i++
		})
		if hits != i {
			return 0, fmt.Errorf("kernels: table %s hit %d of %d lookups", t.Name, hits, i)
		}
		return ns, nil
	}

	exact := asic.NewTable("exact", asic.MatchExact, asic.FieldIPv4Dst)
	ternary := asic.NewTable("ternary", asic.MatchTernary, asic.FieldIPv4Dst)
	ranges := asic.NewTable("range", asic.MatchRange, asic.FieldUDPDstPort)
	for j := 0; j < entries; j++ {
		ip := uint64(0x0a000000 + j*256)
		if err := exact.AddExact([]uint64{ip}, nil); err != nil {
			return err
		}
		if err := ternary.AddTernary([]uint64{ip}, []uint64{0xffffff00}, j&7, nil); err != nil {
			return err
		}
		if err := ranges.AddRange(uint64(j*64), uint64(j*64+31), j&7, nil); err != nil {
			return err
		}
	}
	ipKey := func(i int) uint64 { return uint64(0x0a000000 + i*256) }
	if k.out["asic.exact_apply_ns"], err = apply(exact, asic.FieldIPv4Dst, ipKey); err != nil {
		return err
	}
	if k.out["asic.ternary_apply_ns"], err = apply(ternary, asic.FieldIPv4Dst, ipKey); err != nil {
		return err
	}
	k.out["asic.range_apply_ns"], err = apply(ranges, asic.FieldUDPDstPort, func(i int) uint64 { return uint64(i*64 + 7) })
	return err
}

// pipeline times one frame's whole traversal of a bare switch: unicast,
// 4-way multicast (per copy) and a digest-emitting pass with its drain.
func (k *kernelRun) pipeline() error {
	frame, err := udpFrame(64)
	if err != nil {
		return err
	}
	base := &netproto.Packet{Data: frame}
	newSwitch := func(ports int) (*netsim.Sim, *asic.Switch) {
		sim := netsim.New()
		gbps := make([]float64, ports)
		for i := range gbps {
			gbps[i] = 100
		}
		sw := asic.New(asic.Config{Name: "kernel", Sim: sim, PortGbps: gbps, Seed: k.e.seed})
		for i := 0; i < ports; i++ {
			sw.Port(i).SetPeer(func(pkt *netproto.Packet, at netsim.Time) { pkt.Release() })
		}
		return sim, sw
	}
	traverse := func(sim *netsim.Sim, sw *asic.Switch) (float64, float64) {
		return k.loop(func() {
			sw.Port(0).Receive(base.Clone())
			sim.Run()
		})
	}

	sim, sw := newSwitch(2)
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) { p.EgressPort = 1 }))
	k.out["asic.ingress_ns"], k.out["asic.ingress_allocs"] = traverse(sim, sw)

	sim, sw = newSwitch(5)
	if err := sw.Mcast.SetGroup(1, []asic.CopySpec{
		{Port: 1, Rid: 1}, {Port: 2, Rid: 2}, {Port: 3, Rid: 3}, {Port: 4, Rid: 4},
	}); err != nil {
		return err
	}
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) { p.McastGroup = 1 }))
	ns, allocs := traverse(sim, sw)
	k.out["asic.mcast_copy_ns"], k.out["asic.mcast_allocs"] = ns/4, allocs

	sim, sw = newSwitch(1)
	payload := make([]byte, 64)
	sw.Ingress.Add(asic.ProcessorFunc(func(p *asic.PHV) {
		p.DigestData = payload
		p.Drop = true
	}))
	sw.DigestOut = func([]byte, netsim.Time) {}
	k.out["asic.digest_ns"], k.out["asic.digest_allocs"] = traverse(sim, sw)
	return nil
}

// frontend times parse, format, compile and verify over the 18-program
// corpus, each program with its experiment's own options.
func (k *kernelRun) frontend() error {
	specs := experiments.Programs()
	named := map[string]bool{
		"table5_delay": true, "table5_ipscan": true, "case_webscale": true,
		"table7_06": true, "fig10_throughput_4port": true,
	}
	var compileUs, analyzeUs []float64
	tables, loc, paths := 0, 0, 0
	var err error
	for _, s := range specs {
		task, perr := ntapi.Parse(s.Name, s.Src)
		if perr != nil {
			return perr
		}
		var prog *compiler.Program
		ns, _ := k.loop(func() { prog, err = compiler.Compile(task, s.Opts) })
		if err != nil {
			return err
		}
		compileUs = append(compileUs, ns/1e3)
		if named[s.Name] {
			k.out["compiler.compile_us."+s.Name] = ns / 1e3
		}
		var rep *verify.Report
		ns, _ = k.loop(func() { rep = compiler.AnalyzePlan(prog, verify.Options{}) })
		analyzeUs = append(analyzeUs, ns/1e3)
		tables += len(prog.P4.Tables)
		loc += p4ir.CountedLoC(prog.P4)
		paths += rep.Paths

		switch s.Name {
		case "case_webscale":
			ns, _ = k.loop(func() { _, err = ntapi.Parse(s.Name, s.Src) })
			if err != nil {
				return err
			}
			k.out["ntapi.parse_us"] = ns / 1e3
			ns, _ = k.loop(func() { _ = ntapi.Format(task) })
			k.out["ntapi.format_us"] = ns / 1e3
		case "table5_delay":
			// Replay every witness of the delay task through the
			// compiled plan, entries prepared beforehand.
			rep := compiler.AnalyzePlan(prog, verify.Options{Witnesses: true})
			if len(rep.Witnesses) == 0 {
				return fmt.Errorf("kernels: %s produced no witness", s.Name)
			}
			entries := make([]map[string][]p4ir.Entry, len(rep.Witnesses))
			for i, w := range rep.Witnesses {
				entries[i] = compiler.SyntheticEntries(prog.P4, w)
			}
			i := 0
			ns, _ = k.loop(func() {
				w := rep.Witnesses[i%len(rep.Witnesses)]
				fields := make(map[string]uint64, len(w.Fields))
				for f, v := range w.Fields {
					fields[f] = v
				}
				w.Fields = fields // ReplayPlan settles the witness in place
				_, err = compiler.ReplayPlan(prog, &w, entries[i%len(entries)])
				i++
			})
			if err != nil {
				return err
			}
			k.out["verify.replay_us"] = ns / 1e3
		}
	}
	k.out["compiler.compile_us.geomean"] = geomean(compileUs)
	k.out["verify.analyze_us.geomean"] = geomean(analyzeUs)
	k.out["compiler.p4_tables"] = float64(tables)
	k.out["compiler.p4_loc"] = float64(loc)
	k.out["verify.paths"] = float64(paths)

	// Fig. 17's inner loop: 2^18 random 5-tuples against 2^16-slot arrays
	// with 16-bit digests.
	r := rand.New(rand.NewSource(k.e.seed))
	n := 1 << 18
	if k.smoke {
		n = 1 << 12
	}
	tuples := make([][]uint64, n)
	for i := range tuples {
		tuples[i] = []uint64{r.Uint64() & 0xffffffff, r.Uint64() & 0xffffffff, r.Uint64() & 0xffff, r.Uint64() & 0xffff, 6}
	}
	ns, _ := k.loop(func() {
		compiler.ComputeExactKeys(tuples, 1<<16, 16, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
	})
	k.out["compiler.exactkeys_ms"] = ns / 1e6
	return nil
}

// receiver times the query path's building blocks: a counter-table update
// cycling over 65536 keys, collecting that table, the eviction codec, and a
// trigger-FIFO push/pop.
func (k *kernelRun) receiver() error {
	task, err := ntapi.Parse("delay", delaySource(rand.New(rand.NewSource(k.e.seed))))
	if err != nil {
		return err
	}
	prog, err := compiler.Compile(task, compiler.Options{RecircPaths: 1})
	if err != nil {
		return err
	}
	plan := prog.QueryByID(1)
	ct := htpr.NewCounterTable(plan)
	key := make([]uint64, 1)
	i := uint64(0)
	k.out["htpr.counter_update_ns"], _ = k.loop(func() {
		key[0] = i & 0xffff
		ct.Update(key, i)
		ct.DrainOne()
		i++
	})
	full := htpr.NewCounterTable(plan)
	for id := uint64(0); id < 1<<16; id++ {
		key[0] = id
		full.Update(key, id)
		full.DrainOne()
	}
	rows := 0
	ns, _ := k.loop(func() { rows = len(full.Collect()) })
	if rows != 1<<16 {
		return fmt.Errorf("kernels: counter table collected %d keys, want 65536", rows)
	}
	k.out["htpr.counter_collect_ms"] = ns / 1e6

	var buf []byte
	k.out["htpr.eviction_codec_ns"], _ = k.loop(func() {
		buf = htpr.AppendEviction(buf[:0], 1, key, 7)
		_, _, _, err = htpr.DecodeEviction(buf)
	})
	if err != nil {
		return err
	}

	fifo := stateless.New("kernel", []asic.Field{asic.FieldIPv4Src, asic.FieldIPv4Dst, asic.FieldTCPSrcPort, asic.FieldTCPDstPort}, 1024)
	rec := []uint64{1, 2, 3, 4}
	k.out["stateless.fifo_pushpop_ns"], _ = k.loop(func() {
		fifo.Push(rec)
		fifo.Pop()
	})
	return nil
}

func (k *kernelRun) scenarios() error {
	data, err := scenario.EncodeSuite(scenario.Library())
	if err != nil {
		return err
	}
	var suite *scenario.Suite
	ns, _ := k.loop(func() { suite, err = scenario.Parse(data, "starter", "") })
	if err != nil {
		return err
	}
	k.out["scenario.load_us"] = ns / 1e3
	run := suite.Scenarios
	if k.smoke {
		run = run[:1]
	}
	t0 := time.Now()
	for _, sc := range run {
		res, err := scenario.Run(sc, 1)
		if err != nil {
			return err
		}
		if !res.Pass {
			return fmt.Errorf("kernels: starter scenario %s failed its checks", sc.Name)
		}
	}
	k.out["scenario.starter_run_ms"] = time.Since(t0).Seconds() * 1e3
	return nil
}

// emitRecords appends n lifecycle records to a fresh stream of a new trace
// set. It is a plain function with no literals because htlint's obsalloc
// analyzer holds every function that calls Emit to the per-packet fast-path
// rules.
func emitRecords(kind obs.Kind, label string, n int) *obs.TraceSet {
	ts := obs.NewTraceSet()
	tr := ts.New("kernel")
	for i := 0; i < n; i++ {
		tr.Emit(netsim.Time(i), kind, uint64(i), label, 0, 64)
	}
	return ts
}

func (k *kernelRun) observability() error {
	const batch = 1 << 18
	k.out["obs.emit_ns"], _ = k.timeOp(func(n int) int {
		for done := 0; done < n; done += batch {
			emitRecords(obs.KindParse, "", min(batch, n-done))
		}
		return n
	})
	ts := emitRecords(obs.KindTableHit, "table", batch)
	var err error
	ns, _ := k.loop(func() { err = ts.WriteCanonical(io.Discard) })
	k.out["obs.canonical_ms_per_mrec"] = ns / 1e6 * 1e6 / batch
	return err
}

// experiments runs the quick paper suite once, sequentially, and records the
// whole and the three experiments ROADMAP item 2 sets targets for.
func (k *kernelRun) experiments() error {
	named := map[string]string{
		"Fig. 17":    "experiments.fig17_s",
		"Case study": "experiments.casestudy_s",
		"Ablation A": "experiments.ablation_a_allocs",
	}
	cfg := experiments.Config{Quick: true, Seed: k.e.seed}
	total := 0.0
	for _, sp := range experiments.Specs() {
		metric, isNamed := named[sp.ID]
		if k.smoke && !isNamed {
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res := sp.Fn(cfg)
		d := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		for _, note := range res.Notes {
			if strings.HasPrefix(note, "ERROR") {
				return fmt.Errorf("kernels: experiment %s: %s", sp.ID, note)
			}
		}
		total += d
		switch {
		case sp.ID == "Ablation A":
			k.out[metric] = float64(m1.Mallocs - m0.Mallocs)
		case isNamed:
			k.out[metric] = d
		}
	}
	k.out["experiments.quick_suite_s"] = total
	return nil
}
