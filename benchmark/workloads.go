package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"sort"
	"time"

	hypertester "github.com/hypertester/hypertester"
	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/testbed"
	"github.com/hypertester/hypertester/internal/verify"
)

// env is what a run fixes for every rep of a workload.
type env struct {
	seed  int64
	scale float64 // multiplies simulated windows and pass counts; 1 in measured runs
}

// check is one correctness check; failed checks make up fail_ratio.
type check struct {
	name   string
	ok     bool
	detail string
}

type checker struct{ list []check }

func (c *checker) add(name string, ok bool, format string, args ...any) {
	c.list = append(c.list, check{name, ok, fmt.Sprintf(format, args...)})
}

// repResult is one rep: a fresh testbed, set up, warmed, then a fixed amount
// of simulated work measured.
type repResult struct {
	setup       float64 // seconds
	cost        regionDelta
	work        uint64 // packets on tester ports inside the window, or programs
	fingerprint string
	prefix      string // linerate64: the fingerprint at half window
	checks      []check
	layer       map[string]float64 // traced reps: per-layer counts read at the region boundaries
	// windowWall host seconds advanced the simulation by windowSim
	// simulated seconds (the region without Reports()).
	windowWall, windowSim float64
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	def  workloadDef
	base string // unit of work
	// threads, when set, is the GOMAXPROCS the workload's process runs at.
	threads int
	// rep runs one measured rep, starting from freshMemory; rec is nil in
	// untraced runs.
	rep func(e env, rec *recorder) (*repResult, error)
	// setupOnly sets up once more and discards the testbed, so a run has
	// enough set-up samples for a steady median.
	setupOnly func(e env) (float64, error)
	// obsSegment runs a short obs-traced slice of the window; nil when the
	// workload simulates no packet.
	obsSegment func(e env) (*obsResult, error)
}

func workloads() []*workload {
	line := &simSpec{
		ports:  4,
		window: 8 * netsim.Millisecond,
		source: linerateSource,
		dut:    sinkDUT,
		check:  checkLinerate,
		prefix: true,
	}
	// linerate64-par keeps its two engine workers on one OS thread. Handing
	// an epoch to a parked thread costs whatever the host's wake-up latency
	// is at the moment: on a shared 2-vCPU box the same window took 1.9 s in
	// one hour and 3.2 s in the next, steadily within each. One thread
	// leaves the engine's own work: epochs, cross-LP messages, lookahead.
	par := &simSpec{
		ports:   4,
		workers: 2,
		threads: 1,
		window:  4 * netsim.Millisecond,
		source:  linerateSource,
		dut:     sinkDUT,
		check:   checkLinerate,
	}
	web := &simSpec{
		ports:  1,
		window: 30 * netsim.Millisecond,
		source: webscaleSource,
		dut:    farmDUT,
		check:  checkWebscale,
	}
	delay := &simSpec{
		ports:   1,
		window:  25 * netsim.Millisecond,
		source:  delaySource,
		dut:     reflectorDUT,
		check:   checkDelay,
		collect: true,
	}
	var out []*workload
	for i, s := range []*simSpec{line, par, web, delay} {
		out = append(out, &workload{def: workloadDefs[i], base: "packets", threads: s.threads,
			rep: s.rep, setupOnly: s.setupOnly, obsSegment: s.obsSegment})
	}
	out = append(out, &workload{def: workloadDefs[4], base: "programs",
		rep: compileRep, setupOnly: compileSetupOnly})
	return out
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// ---- generated inputs -------------------------------------------------

func randIP(r *rand.Rand) string {
	return fmt.Sprintf("%d.%d.%d.%d", 1+r.Intn(223), r.Intn(256), r.Intn(256), 1+r.Intn(254))
}

func randPort(r *rand.Rand) int { return 1024 + r.Intn(60000) }

func linerateSource(r *rand.Rand) string {
	return fmt.Sprintf(`
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [%s, %s, udp, %d, %d])
    .set(length, 64)
    .set(port, [0, 1, 2, 3])
`, randIP(r), randIP(r), randPort(r), randPort(r))
}

// webscaleSource is the sec. 5.4 workflow; the client port sweep keeps its
// 32768-value length (no flow reuse inside the window) at a seeded origin.
func webscaleSource(r *rand.Rand) string {
	first := 1024 + r.Intn(30000)
	return fmt.Sprintf(`
T1 = trigger()
    .set([dip, dport, proto, flag, seq_no], [%s, 80, tcp, SYN, 1])
    .set(sip, %s)
    .set(sport, range(%d, %d, 1))
    .set(interval, 10us)
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
    .set(length, 78)
    .set(payload, "GET index.html")
Q3 = query().filter(tcp_flag == PSH+ACK).reduce(func=count).filter(count >= 5)
T5 = trigger(Q3)
    .set([dip, sip, dport, sport], [Q3.sip, Q3.dip, Q3.sport, Q3.dport])
    .set([proto, flag], [tcp, FIN])
    .set([seq_no, ack_no], [Q3.ack_no, Q3.seq_no + 1])
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=sum)
`, randIP(r), randIP(r), first, first+32767)
}

// delaySource is Table 5's delay task at a 200 ns interval: sent and
// received traffic each feed a keyed max over all 65536 IPv4 ids.
func delaySource(r *rand.Rand) string {
	return fmt.Sprintf(`
T1 = trigger()
    .set([dip, sip, proto], [%s, %s, udp])
    .set([dport, sport], [%d, %d])
    .set(ipv4.id, range(0, 65535, 1))
    .set(interval, 200ns)
    .set(port, 0)
Q1 = query(T1).map(p -> (ipv4.id)).reduce(keys={ipv4.id}, func=max)
Q2 = query().map(p -> (ipv4.id)).reduce(keys={ipv4.id}, func=max)
Q3 = query().map(p -> (pkt_len)).reduce(func=sum)
`, randIP(r), randIP(r), randPort(r), randPort(r))
}

// ---- simulated workloads ----------------------------------------------

const (
	warmup  = 30 * netsim.Microsecond
	slices  = 100
	obsPart = 16      // the obs segment covers 1/obsPart of the window
	obsCap  = 1 << 21 // records per stream the obs segment may keep
)

// simSpec describes a workload that drives a tester against devices.
type simSpec struct {
	ports   int
	workers int // >1 runs on the LP engine
	threads int // GOMAXPROCS of the workload's process; 0 leaves it alone
	window  netsim.Duration
	source  func(r *rand.Rand) string
	dut     func(b *bed)
	check   func(ck *checker, b *bed, d counts)
	collect bool // Reports() belongs to the measured region
	prefix  bool // also fingerprint at half window

	// sequential is the fingerprint of the same window on the sequential
	// engine, which an LP-engine workload must reproduce bit for bit. It
	// is computed once per process, outside any measured region.
	sequential string
}

// bed is one wired testbed.
type bed struct {
	p       *testbed.Partition
	ht      *hypertester.Tester
	sinks   []*testbed.Sink
	farm    *testbed.HTTPServerFarm
	refl    *testbed.Reflector
	reports []htpr.Report
}

func sinkDUT(b *bed) {
	for i := 0; i < b.ht.Switch.NumPorts(); i++ {
		name := fmt.Sprintf("sink%d", i)
		s := testbed.NewSink(b.p.LP(name), name, 100)
		b.p.Connect(b.ht.Port(i), s.Iface, 0)
		b.sinks = append(b.sinks, s)
	}
}

func farmDUT(b *bed) {
	b.farm = testbed.NewHTTPServerFarm(b.p.LP("farm"), "farm", 100)
	b.farm.ResponsePackets = 5
	b.p.Connect(b.ht.Port(0), b.farm.Iface, testbed.DefaultCableDelay)
}

func reflectorDUT(b *bed) {
	b.refl = testbed.NewReflector(b.p.LP("reflector"), "reflector", 100)
	b.p.Connect(b.ht.Port(0), b.refl.Iface, testbed.DefaultCableDelay)
}

func (b *bed) ifaces() []*testbed.Iface {
	var out []*testbed.Iface
	for _, s := range b.sinks {
		out = append(out, s.Iface)
	}
	if b.farm != nil {
		out = append(out, b.farm.Iface)
	}
	if b.refl != nil {
		out = append(out, b.refl.Iface)
	}
	return out
}

// build sets a testbed up to the start of the measured window: wire the
// devices, parse/compile/deploy the generated task, start the templates and
// run the simulated warm-up. In the traced run the driver also calls parse,
// compile and the verifier on their own first, so their share of
// LoadTaskSource is known (hypertester.deploy_ms = load - parse - compile).
func (s *simSpec) build(e env, workers int, rec *recorder, ts *obs.TraceSet) (*bed, error) {
	src := s.source(rand.New(rand.NewSource(e.seed)))
	var err error
	if rec != nil {
		var task *ntapi.Task
		rec.do("ntapi.parse", func() { task, err = ntapi.Parse("bench", src) })
		if err != nil {
			return nil, err
		}
		var prog *compiler.Program
		rec.do("compiler.compile", func() { prog, err = compiler.Compile(task, compiler.Options{RecircPaths: 1}) })
		if err != nil {
			return nil, err
		}
		rec.do("verify.analyze", func() { compiler.AnalyzePlan(prog, verify.Options{}) })
		runtime.GC() // LoadTaskSource's own compile starts from the heap this one did
	}
	b := &bed{}
	rec.do("testbed.wire", func() {
		b.p = testbed.NewPartition(workers)
		ports := make([]float64, s.ports)
		for i := range ports {
			ports[i] = 100
		}
		b.ht = hypertester.New(hypertester.Config{Sim: b.p.LP("tester"), Ports: ports, Seed: e.seed})
		if ts != nil {
			b.ht.EnableTrace(ts.New("tester"))
		}
		s.dut(b)
	})
	rec.do("hypertester.load", func() { err = b.ht.LoadTaskSource("bench", src) })
	if err != nil {
		return nil, err
	}
	if err := b.ht.Start(); err != nil {
		return nil, err
	}
	rec.do("run.warmup", func() { b.p.RunFor(warmup) })
	return b, nil
}

func (s *simSpec) slice(e env) netsim.Duration {
	d := netsim.Duration(float64(s.window) * e.scale / slices)
	if d < netsim.Nanosecond {
		d = netsim.Nanosecond
	}
	return d
}

func (s *simSpec) setupOnly(e env) (float64, error) {
	freshMemory()
	t0 := time.Now()
	_, err := s.build(e, s.workers, nil, nil)
	return time.Since(t0).Seconds(), err
}

func (s *simSpec) rep(e env, rec *recorder) (*repResult, error) {
	if s.workers > 1 && s.sequential == "" {
		seq := *s
		seq.workers = 1
		ref, err := seq.rep(e, nil)
		if err != nil {
			return nil, err
		}
		s.sequential = ref.fingerprint
	}
	freshMemory()
	t0 := time.Now()
	b, err := s.build(e, s.workers, rec, nil)
	if err != nil {
		return nil, err
	}
	res := &repResult{setup: time.Since(t0).Seconds()}
	before := b.counts()
	slice := s.slice(e)

	reg := beginRegion()
	rec.do("run.window", func() {
		for i := 0; i < slices; i++ {
			rec.do("run.slice", func() { b.p.RunFor(slice) })
			if s.prefix && i == slices/2-1 {
				res.prefix = b.fingerprint()
			}
		}
	})
	res.windowWall, res.windowSim = time.Since(reg.t0).Seconds(), (slice * slices).Seconds()
	if s.collect {
		rec.do("htpr.collect", func() { b.reports = b.ht.Reports() })
	}
	res.cost = reg.end()

	if !s.collect {
		b.reports = b.ht.Reports()
	}
	after := b.counts()
	d := after.sub(before)
	res.work = d.testerTx + d.testerRx
	res.fingerprint = b.fingerprint()
	if rec != nil {
		res.layer = b.layerCounts(d, res)
	}
	ck := &checker{}
	s.check(ck, b, d)
	if s.workers > 1 {
		ck.add("counters bit-identical to the sequential engine", res.fingerprint == s.sequential,
			"parallel %s sequential %s", short(res.fingerprint), short(s.sequential))
	}
	res.checks = ck.list
	return res, nil
}

// counts are the public counters the driver reads at region boundaries.
type counts struct {
	testerTx, testerRx uint64 // front-panel ports
	txDrops            uint64
	passes             uint64 // frames through the recirculation paths
	fired              uint64
	events             uint64
	digests, digestDrops,
	digestBytes uint64
	dutRx, dutTx        uint64
	epochs, xlp, stalls uint64
	testerEvents        uint64
}

func (b *bed) counts() counts {
	var c counts
	sw := b.ht.Switch
	for i := 0; i < sw.NumPorts(); i++ {
		pt := sw.Port(i)
		c.testerTx += pt.TxPackets
		c.testerRx += pt.RxPackets
		c.txDrops += pt.TxDrops
	}
	for i := 0; i < sw.RecircPaths(); i++ {
		c.passes += sw.Port(asic.RecircPortBase + i).TxPackets
	}
	for _, t := range b.ht.Program.Templates {
		c.fired += b.ht.Sender.FiredCount(t.ID)
	}
	c.digests, c.digestDrops, c.digestBytes = sw.DigestsSent, sw.DigestDrops, b.ht.CPU.DigestBytes
	for _, i := range b.ifaces() {
		c.dutRx += i.RxPackets
		c.dutTx += i.TxPackets
	}
	c.testerEvents = b.ht.Sim.Executed
	if eng := b.p.Engine(); eng != nil {
		st := eng.Stats()
		c.epochs = st.Epochs
		for _, lp := range st.LPs {
			c.events += lp.Executed
			c.xlp += lp.Sent
			c.stalls += lp.Stalls
		}
	} else {
		c.events = b.ht.Sim.Executed
	}
	return c
}

func (c counts) sub(o counts) counts {
	return counts{
		testerTx: c.testerTx - o.testerTx, testerRx: c.testerRx - o.testerRx,
		txDrops: c.txDrops - o.txDrops, passes: c.passes - o.passes,
		fired: c.fired - o.fired, events: c.events - o.events,
		digests: c.digests - o.digests, digestDrops: c.digestDrops - o.digestDrops,
		digestBytes: c.digestBytes - o.digestBytes,
		dutRx:       c.dutRx - o.dutRx, dutTx: c.dutTx - o.dutTx,
		epochs: c.epochs - o.epochs, xlp: c.xlp - o.xlp, stalls: c.stalls - o.stalls,
		testerEvents: c.testerEvents - o.testerEvents,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts turns the counter deltas of the measured window into the
// per-layer count metrics.
func (b *bed) layerCounts(d counts, res *repResult) map[string]float64 {
	work := float64(res.work)
	ws := b.ht.Sim.WheelStats()
	m := map[string]float64{
		"netsim.events":            float64(d.events),
		"netsim.events_per_pkt":    ratio(float64(d.events), work),
		"netsim.ns_per_event":      ratio(res.cost.wall*1e9, float64(d.events)),
		"netsim.pending_end":       float64(ws.Pending),
		"netsim.wheel_buckets_end": float64(ws.Buckets),
		"netsim.overflow_end":      float64(ws.Overflow),
		"asic.tx_drops":            float64(d.txDrops),
		"asic.digests_sent":        float64(d.digests),
		"asic.digest_drops":        float64(d.digestDrops),
		"htps.fired":               float64(d.fired),
		"htps.useful_pass_ratio":   ratio(float64(d.testerTx), float64(d.passes)),
		"switchcpu.digest_bytes":   float64(d.digestBytes),
		"testbed.dut_rx_pkts":      float64(d.dutRx),
		"testbed.dut_tx_pkts":      float64(d.dutTx),
	}
	reg := obs.NewRegistry()
	b.ht.Describe(reg)
	if v, ok := reg.Snapshot()[b.ht.Switch.Name+".phv_pool"].(float64); ok {
		m["asic.phv_pool"] = v
	}
	for _, st := range b.ht.Receiver.States() {
		m["htpr.matches"] += float64(st.Matches)
		if st.Table != nil {
			m["htpr.distinct"] += float64(st.Table.DistinctCount())
			m["htpr.evictions"] += float64(st.Table.Evictions)
		}
	}
	if eng := b.p.Engine(); eng != nil {
		m["engine.epochs"] = float64(d.epochs)
		m["engine.events_per_epoch"] = ratio(float64(d.events), float64(d.epochs))
		m["engine.xlp_msgs"] = float64(d.xlp)
		m["engine.stalls"] = float64(d.stalls)
		m["engine.stall_ratio"] = ratio(float64(d.stalls), float64(d.epochs)*float64(len(eng.Stats().LPs)))
		m["engine.tester_lp_share"] = ratio(float64(d.testerEvents), float64(d.events))
	}
	return m
}

// fingerprint hashes every simulated statistic the run produced: tester port
// counters, template fired counts, device counters and the sorted report
// rows. It must repeat exactly from run to run.
func (b *bed) fingerprint() string {
	h := sha256.New()
	sw := b.ht.Switch
	for i := 0; i < sw.NumPorts(); i++ {
		pt := sw.Port(i)
		fmt.Fprintf(h, "port%d %d %d %d %d %d\n", i, pt.TxPackets, pt.TxBytes, pt.RxPackets, pt.RxBytes, pt.TxDrops)
	}
	for _, t := range b.ht.Program.Templates {
		fmt.Fprintf(h, "template%d %d\n", t.ID, b.ht.Sender.FiredCount(t.ID))
	}
	for i, s := range b.sinks {
		fmt.Fprintf(h, "sink%d %d %d\n", i, s.Packets, s.Bytes)
	}
	if f := b.farm; f != nil {
		fmt.Fprintf(h, "farm %d %d %d %d %d %d %d\n", f.SynReceived, f.Handshakes, f.Requests,
			f.DataSent, f.FinReceived, f.Closed, f.UnexpectedPkts)
	}
	if r := b.refl; r != nil {
		fmt.Fprintf(h, "reflector %d\n", r.Reflected)
	}
	for _, i := range b.ifaces() {
		fmt.Fprintf(h, "iface %s %d %d %d %d\n", i.Name, i.RxPackets, i.RxBytes, i.TxPackets, i.TxBytes)
	}
	hashReports(h, b.reports)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashReports(h hash.Hash, reports []htpr.Report) {
	for _, r := range reports {
		fmt.Fprintf(h, "report %s %s %d %d %d %d\n", r.Query, r.Kind, r.Matches, r.Bytes, r.Distinct, r.DelaySamples)
		rows := make([]string, len(r.Results))
		for i, row := range r.Results {
			rows[i] = fmt.Sprint(row.Key, row.Value)
		}
		sort.Strings(rows)
		for _, row := range rows {
			fmt.Fprintln(h, row)
		}
	}
}

func (b *bed) report(name string) htpr.Report {
	for _, r := range b.reports {
		if r.Query == name {
			return r
		}
	}
	return htpr.Report{}
}

func checkLinerate(ck *checker, b *bed, d counts) {
	for i, s := range b.sinks {
		g := s.ThroughputGbps()
		ck.add(fmt.Sprintf("sink%d at 64B line rate", i), g >= 99, "%.3f Gbps, want >= 99", g)
	}
	ck.add("no tx drops", d.txDrops == 0, "%d dropped", d.txDrops)
	// A frame counts as sent at serialization end and as received at the
	// same instant over a zero-delay cable, so at most the frame being
	// handed over on each port is in flight at the cut.
	inflight := int64(d.testerTx) - int64(d.dutRx)
	ck.add("tester tx = sink rx + in flight", inflight >= 0 && inflight <= int64(len(b.sinks)),
		"tx %d rx %d", d.testerTx, d.dutRx)
}

func checkWebscale(ck *checker, b *bed, d counts) {
	f := b.farm
	syns := b.ht.Sender.FiredCount(1)
	// The SYN fired last may not have been answered yet at the cut.
	ck.add("handshakes >= 99% of SYNs fired", float64(f.Handshakes+1) >= 0.99*float64(syns),
		"%d handshakes, %d SYNs", f.Handshakes, syns)
	// Q1 counts SYN+ACKs at the tester; the farm counts the handshake when
	// the answering ACK lands, one cable hop and one template pass later.
	q1 := b.report("Q1").Matches
	ck.add("Q1.matches = farm handshakes (+ in flight)", q1 >= f.Handshakes && q1-f.Handshakes <= 1,
		"Q1 %d farm %d", q1, f.Handshakes)
	// A connection's GET, five data packets and FIN take under two SYN
	// intervals, so at most two handshaken connections are still open.
	ck.add("FINs within one RTT of handshakes", f.Handshakes >= f.FinReceived && f.Handshakes-f.FinReceived <= 2,
		"%d handshakes, %d FINs", f.Handshakes, f.FinReceived)
	ck.add("no unexpected packets at the farm", f.UnexpectedPkts == 0, "%d", f.UnexpectedPkts)
}

func checkDelay(ck *checker, b *bed, d counts) {
	rx := b.ht.Port(0).RxPackets
	q2 := b.report("Q2").Matches
	// Reflected frames still on the wire or in the 170 ns ingress stage at
	// the cut are counted by the reflector but not yet by the port or Q2.
	ck.add("Q2.matches = port rx (+ in ingress)", rx >= q2 && rx-q2 <= 1, "Q2 %d rx %d", q2, rx)
	ck.add("reflector count = port rx (+ in flight)", b.refl.Reflected >= rx && b.refl.Reflected-rx <= 2,
		"reflected %d rx %d", b.refl.Reflected, rx)
	fired := b.ht.Sender.FiredCount(1)
	want := uint64(65536)
	if fired < want {
		want = fired
	}
	// Q1 sees a probe at egress, up to two probes after the replicator
	// counted it as fired.
	got := uint64(len(b.report("Q1").Results))
	ck.add("Q1.distinct = min(65536, fired)", got <= want && got+2 >= want, "%d keys, want %d (fired %d)", got, want, fired)
	ck.add("no digest drops", d.digestDrops == 0, "%d", d.digestDrops)
}

// kindMetric names the per-packet metric of each lifecycle record kind.
var kindMetric = map[obs.Kind]string{
	obs.KindParse: "asic.parse_per_pkt", obs.KindTableHit: "asic.table_hit_per_pkt",
	obs.KindTableMiss: "asic.table_miss_per_pkt", obs.KindSALU: "asic.salu_per_pkt",
	obs.KindTMEnqueue: "asic.tm_enq_per_pkt", obs.KindMcastCopy: "asic.mcast_copy_per_pkt",
	obs.KindRecirculate: "asic.recirc_per_pkt", obs.KindDeparse: "asic.deparse_per_pkt",
	obs.KindDigest: "asic.digest_per_pkt", obs.KindDrop: "asic.drop_per_pkt",
}

// obsResult is the obs-enabled segment: lifecycle records per kind over the
// packets of the segment, and what recording them cost.
type obsResult struct {
	layer   map[string]float64 // asic.*_per_pkt and obs.records
	wallPer float64            // host seconds per simulated second
}

// obsSegment reruns the start of the window with per-packet lifecycle
// tracing on the tester. It stops early once the stream is half full, so
// the per-kind counts always cover exactly the packets counted.
func (s *simSpec) obsSegment(e env) (*obsResult, error) {
	ts := obs.NewTraceSet()
	ts.SetLimit(obsCap)
	b, err := s.build(e, s.workers, nil, ts)
	if err != nil {
		return nil, err
	}
	before := b.counts()
	warm := make([]int, len(ts.Traces())) // records of the warm-up, not counted
	for i, tr := range ts.Traces() {
		warm[i] = tr.Len()
	}
	step := s.slice(e) * slices / obsPart / 16
	if step < netsim.Nanosecond {
		step = netsim.Nanosecond
	}
	var simmed netsim.Duration
	t0 := time.Now()
	for i := 0; i < 16 && ts.Len() < obsCap/2; i++ {
		b.p.RunFor(step)
		simmed += step
	}
	wall := time.Since(t0).Seconds()
	d := b.counts().sub(before)
	res := &obsResult{layer: map[string]float64{}, wallPer: wall / simmed.Seconds()}
	pkts := float64(d.testerTx + d.testerRx)
	for i, tr := range ts.Traces() {
		for _, r := range tr.Records()[warm[i]:] {
			res.layer["obs.records"]++
			if name, ok := kindMetric[r.Kind]; ok {
				res.layer[name]++
			}
		}
	}
	for _, name := range kindMetric {
		res.layer[name] = ratio(res.layer[name], pkts)
	}
	return res, nil
}

// ---- compile ------------------------------------------------------------

const compilePasses = 15

// compilePass parses, compiles and prints every program of the corpus in
// the given order, returning the sha256 of each program's printed P4.
func compilePass(specs []experiments.ProgramSpec, order []int, rec *recorder) (map[string]string, []*compiler.Program, error) {
	hashes := make(map[string]string, len(specs))
	progs := make([]*compiler.Program, len(specs))
	for _, i := range order {
		s := specs[i]
		var task *ntapi.Task
		var err error
		rec.do("ntapi.parse", func() { task, err = ntapi.Parse(s.Name, s.Src) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rec.do("compiler.compile", func() { progs[i], err = compiler.Compile(task, s.Opts) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rec.do("p4ir.print", func() { hashes[s.Name] = fmt.Sprintf("%x", sha256.Sum256([]byte(p4ir.Print(progs[i].P4)))) })
	}
	return hashes, progs, nil
}

// corpus is the compile workload after set-up: the programs, the seeded
// order generator, and the untimed reference pass whose hashes every
// measured pass must reproduce.
type corpus struct {
	specs []experiments.ProgramSpec
	order *rand.Rand
	ref   map[string]string
	progs []*compiler.Program
}

func compileSetup(e env) (*corpus, float64, error) {
	freshMemory()
	t0 := time.Now()
	c := &corpus{specs: experiments.Programs(), order: rand.New(rand.NewSource(e.seed))}
	var err error
	c.ref, c.progs, err = compilePass(c.specs, c.order.Perm(len(c.specs)), nil)
	return c, time.Since(t0).Seconds(), err
}

func compileSetupOnly(e env) (float64, error) {
	_, setup, err := compileSetup(e)
	return setup, err
}

func compileRep(e env, rec *recorder) (*repResult, error) {
	c, setup, err := compileSetup(e)
	if err != nil {
		return nil, err
	}
	specs, ref := c.specs, c.ref
	res := &repResult{setup: setup, layer: map[string]float64{}}
	passes := int(compilePasses*e.scale + 0.5)
	if passes < 1 {
		passes = 1
	}
	orders := make([][]int, passes)
	for i := range orders {
		orders[i] = c.order.Perm(len(specs))
	}
	mismatches := 0
	reg := beginRegion()
	rec.do("run.window", func() {
		for _, order := range orders {
			rec.do("run.slice", func() {
				var hashes map[string]string
				hashes, _, err = compilePass(specs, order, rec)
				for name, h := range hashes {
					if h != ref[name] {
						mismatches++
					}
				}
			})
			if err != nil {
				return
			}
		}
	})
	res.cost = reg.end()
	if err != nil {
		return nil, err
	}
	res.work = uint64(passes * len(specs))

	ck := &checker{}
	ck.add("every program compiles", len(ref) == len(specs), "%d of %d", len(ref), len(specs))
	ck.add("printed P4 hash equal on every pass", mismatches == 0, "%d mismatches over %d passes", mismatches, passes)
	nErr := 0
	rec.do("verify.analyze", func() {
		for _, p := range c.progs {
			nErr += len(compiler.AnalyzePlan(p, verify.Options{}).Errors())
		}
	})
	ck.add("AnalyzePlan reports no errors", nErr == 0, "%d errors", nErr)
	res.checks = ck.list

	h := sha256.New()
	for _, s := range specs {
		fmt.Fprintf(h, "%s %s\n", s.Name, ref[s.Name])
	}
	res.fingerprint = fmt.Sprintf("%x", h.Sum(nil))
	return res, nil
}
