package compiler

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/stats"
)

func throughputTask(t *testing.T) *ntapi.Task {
	t.Helper()
	task, err := ntapi.Parse("throughput", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set([loop, length], [0, 64])
    .set(port, 0)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
`)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestCompileThroughput(t *testing.T) {
	prog, err := Compile(throughputTask(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Templates) != 1 || len(prog.Queries) != 2 {
		t.Fatalf("templates=%d queries=%d", len(prog.Templates), len(prog.Queries))
	}
	tmpl := prog.Templates[0]
	if tmpl.Packet.Len() != 64 {
		t.Fatalf("template frame = %d bytes", tmpl.Packet.Len())
	}
	var s netproto.Stack
	if err := s.Decode(tmpl.Packet.Data); err != nil {
		t.Fatal(err)
	}
	if s.IP4.Dst != netproto.MustIPv4("9.9.9.9") || s.IP4.Src != netproto.MustIPv4("1.1.0.1") {
		t.Fatalf("template IPs: %v -> %v", s.IP4.Src, s.IP4.Dst)
	}
	if !s.Has(netproto.LayerUDP) || s.UDP.DstPort != 1 {
		t.Fatalf("template L4: %+v", s.UDP)
	}
	if len(tmpl.Mods) != 0 {
		t.Fatalf("constant-only trigger should have no editor mods: %+v", tmpl.Mods)
	}
	if tmpl.IntervalPs != 0 {
		t.Fatalf("interval = %d, want 0 (line rate)", tmpl.IntervalPs)
	}
	// Sent-traffic query bound to the template; received query at ingress.
	if !prog.Queries[0].Egress || prog.Queries[0].SentTemplateID != 1 {
		t.Fatalf("q1 plan: %+v", prog.Queries[0])
	}
	if prog.Queries[1].Egress {
		t.Fatal("q2 should monitor received traffic")
	}
	if prog.Queries[0].ValueField != asic.FieldPktLen {
		t.Fatalf("q1 value field = %v", prog.Queries[0].ValueField)
	}
	// Generated P4 exists and prints.
	if prog.P4 == nil || p4ir.CountedLoC(prog.P4) < 20 {
		t.Fatalf("generated P4 LoC = %d", p4ir.CountedLoC(prog.P4))
	}
}

func TestCompileEditorMods(t *testing.T) {
	task, err := ntapi.Parse("mods", `
T1 = trigger()
    .set([dip, proto], [9.9.9.9, tcp])
    .set(sport, range(1024, 2047, 1))
    .set(dport, [80, 81, 82])
    .set(seq_no, random('N', 1000, 100, 16))
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := prog.Templates[0]
	if len(tmpl.Mods) != 3 {
		t.Fatalf("mods = %d, want 3", len(tmpl.Mods))
	}
	kinds := map[ModKind]FieldMod{}
	for _, m := range tmpl.Mods {
		kinds[m.Kind] = m
	}
	prog1, ok := kinds[ModProgression]
	if !ok || prog1.Start != 1024 || prog1.End != 2047 {
		t.Fatalf("progression: %+v", prog1)
	}
	list, ok := kinds[ModList]
	if !ok || len(list.List) != 3 {
		t.Fatalf("list: %+v", list)
	}
	rnd, ok := kinds[ModRandom]
	if !ok || len(rnd.InvTable) == 0 {
		t.Fatalf("random: %+v", rnd)
	}
	// Stream length is the longest sequence.
	if tmpl.StreamLen != 1024 {
		t.Fatalf("stream len = %d, want 1024", tmpl.StreamLen)
	}
	// TCP implied by seq_no set.
	var s netproto.Stack
	if err := s.Decode(tmpl.Packet.Data); err != nil {
		t.Fatal(err)
	}
	if !s.Has(netproto.LayerTCP) {
		t.Fatal("template should be TCP")
	}
}

func TestCompileRandomInvTableShape(t *testing.T) {
	task := ntapi.NewTask("rand")
	task.Trigger().Set("sport", ntapi.Random{Dist: ntapi.DistNormal, P1: 30000, P2: 2000, Bits: 16}).WithPorts(0)
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	table := prog.Templates[0].Mods[0].InvTable
	if len(table) != 512 {
		t.Fatalf("table size = %d", len(table))
	}
	// Median of the table should be near the mean; tails spread.
	mid := float64(table[len(table)/2])
	if math.Abs(mid-30000) > 200 {
		t.Fatalf("median = %v, want ~30000", mid)
	}
	if table[0] >= table[len(table)-1] {
		t.Fatal("inverse CDF not increasing")
	}
	lo := stats.NormalInvCDF(30000, 2000)(0.5 / 512)
	if math.Abs(float64(table[0])-lo) > 2 {
		t.Fatalf("low tail %d vs theory %.0f", table[0], lo)
	}
}

func TestCompileLoopPackets(t *testing.T) {
	task := ntapi.NewTask("loop")
	task.Trigger().
		Set("dport", ntapi.List{80, 81, 82, 83}).
		WithLoop(5).WithPorts(0)
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Templates[0].LoopPackets != 20 {
		t.Fatalf("loop packets = %d, want 20 (5 loops x 4)", prog.Templates[0].LoopPackets)
	}
}

func TestCompileStatelessWiring(t *testing.T) {
	task, err := ntapi.Parse("web", `
T1 = trigger()
    .set([dip, dport, proto, flag, seq_no], [9.9.9.9, 80, tcp, SYN, 1])
    .set(sport, range(1024, 1279, 1))
    .set(interval, 10us)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1)
    .set([dip, sip, dport, sport], [Q1.sip, Q1.dip, Q1.sport, Q1.dport])
    .set([flag, ack_no], [ACK, Q1.seq_no + 1])
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q1 := prog.Queries[0]
	t2 := prog.Templates[1]
	if t2.FromQueryID != q1.ID {
		t.Fatalf("T2 from query %d, want %d", t2.FromQueryID, q1.ID)
	}
	if q1.TriggerTemplateID != t2.ID {
		t.Fatalf("Q1 triggers template %d, want %d", q1.TriggerTemplateID, t2.ID)
	}
	// Record fields must cover every referenced field plus in_port.
	want := map[asic.Field]bool{
		asic.FieldIPv4Src: true, asic.FieldIPv4Dst: true,
		asic.FieldL4SrcPort: true, asic.FieldL4DstPort: true,
		asic.FieldTCPSeq: true, asic.FieldInPort: true,
	}
	got := map[asic.Field]bool{}
	for _, f := range q1.RecordFields {
		got[f] = true
	}
	for f := range want {
		if !got[f] {
			t.Errorf("record fields missing %v (have %v)", f, q1.RecordFields)
		}
	}
	// T2's interval defaults to 0 and has record mods.
	found := false
	for _, m := range t2.Mods {
		if m.Kind == ModFromRecord && m.Field == asic.FieldTCPAck &&
			m.RecordField == asic.FieldTCPSeq && m.RecordOffset == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ack_no record mod missing: %+v", t2.Mods)
	}
}

func TestHeaderSpaceSentZipSemantics(t *testing.T) {
	// sport range of 4 and dport list of 2: the editor zips them, so one
	// pass yields lcm(4,2)=4 tuples.
	task := ntapi.NewTask("zip")
	tr := task.Trigger().
		Set("sip", ntapi.IP("1.1.0.1")).Set("dip", ntapi.IP("9.9.9.9")).
		Set("sport", ntapi.Range{Start: 1000, End: 1003, Step: 1}).
		Set("dport", ntapi.List{80, 81}).
		WithPorts(0)
	task.QueryOf(tr).Reduce(ntapi.AggCount)
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := prog.Queries[0]
	if q.HeaderSpaceSize != 4 {
		t.Fatalf("header space = %d, want 4 (zip of lengths 4 and 2)", q.HeaderSpaceSize)
	}
}

func TestHeaderSpaceReceivedReversed(t *testing.T) {
	// For received traffic the space is the response direction: the
	// probe's dip appears as sip.
	task := ntapi.NewTask("rev")
	task.Trigger().
		Set("sip", ntapi.IP("1.1.0.1")).
		Set("dip", ntapi.Range{Start: uint64(netproto.MustIPv4("9.9.9.0")), End: uint64(netproto.MustIPv4("9.9.9.9")), Step: 1}).
		Set("proto", ntapi.Const(netproto.IPProtoTCP)).
		Set("dport", ntapi.Const(80)).Set("sport", ntapi.Const(1024)).
		WithPorts(0)
	task.Query().Reduce(ntapi.AggCount, "ipv4.sip")
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := prog.Queries[0]
	if q.HeaderSpaceSize != 10 {
		t.Fatalf("response header space = %d, want 10 (the probed dips)", q.HeaderSpaceSize)
	}
}

func TestCompileRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"port too large", `T1 = trigger().set(dport, 70000).set(port, 0)`},
		{"list exceeds width", `T1 = trigger().set(ipv4.ttl, [1, 300]).set(port, 0)`},
		{"range exceeds width", `T1 = trigger().set(dport, range(60000, 70000, 1)).set(port, 0)`},
		{"bad length", `T1 = trigger().set(length, 20).set(port, 0)`},
		{"oversize length", `T1 = trigger().set(length, 3000).set(port, 0)`},
		{"payload too big for frame", `T1 = trigger().set(length, 64).set(payload, "` + string(make([]byte, 100)) + `").set(port, 0)`},
		{"no port", `T1 = trigger().set(dport, 80)`},
		{"count filter pre-reduce", `Q1 = query().filter(count < 5)`},
		{"post filter non-count", `Q1 = query().reduce(func=sum).filter(dport < 5)`},
	}
	for _, c := range cases {
		task, err := ntapi.Parse(c.name, c.src)
		if err != nil {
			// Some are parse-time errors; either rejection layer is fine.
			continue
		}
		if _, err := Compile(task, Options{}); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		}
	}
}

func TestCompileRejectsTooManyTemplates(t *testing.T) {
	// One recirculation path holds AcceleratorCapacity(1500) large
	// templates; one more must be rejected with an error naming
	// RecircPaths, the route to more capacity (§6.1).
	capacity := asic.AcceleratorCapacity(1500)
	task := ntapi.NewTask("many")
	for i := 0; i <= capacity; i++ {
		task.Trigger().Set("dip", ntapi.IP("9.9.9.9")).WithLength(1500).WithPorts(0)
	}
	_, err := Compile(task, Options{RecircPaths: 1})
	if err == nil {
		t.Fatal("over-capacity template count accepted")
	}
	if !strings.Contains(err.Error(), "RecircPaths") {
		t.Fatalf("rejection %q does not name RecircPaths", err)
	}
	// With enough paths it compiles.
	if _, err := Compile(task, Options{RecircPaths: 2}); err != nil {
		t.Fatalf("with 2 paths: %v", err)
	}
}

func TestCompileRejectsOverBudget(t *testing.T) {
	// Enough distinct/reduce queries exhaust the chip's SALUs.
	task := ntapi.NewTask("hog")
	tr := task.Trigger().Set("dip", ntapi.IP("9.9.9.9")).WithPorts(0)
	_ = tr
	for i := 0; i < 40; i++ {
		task.Query().Reduce(ntapi.AggCount, "ipv4.sip")
	}
	if _, err := Compile(task, Options{}); err == nil {
		t.Fatal("resource-hog task accepted")
	}
}

func TestExactKeysNoFalsePositivesByConstruction(t *testing.T) {
	// Property: after removing the exact keys, no two remaining tuples
	// share (array slot, digest) in either array.
	// Randomized flow tuples: CRC hashes behave uniformly on random
	// keys (sequential keys can map injectively — linear hash — and then
	// need no exact entries at all).
	rng := rand.New(rand.NewSource(17))
	tuples := make([][]uint64, 0, 50000)
	for i := 0; i < 50000; i++ {
		tuples = append(tuples, []uint64{rng.Uint64() & 0xffffffff, rng.Uint64() & 0xffff, 6})
	}
	const arraySize = 1 << 12
	const digestBits = 12
	exact := ComputeExactKeys(tuples, arraySize, digestBits,
		asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
	if len(exact) == 0 {
		t.Fatal("expected some collisions at this density")
	}
	inExact := map[string]bool{}
	for _, e := range exact {
		inExact[string(AppendKey(nil, e))] = true
	}
	h1 := asic.NewHashUnit("t1", asic.PolyCRC32)
	halt := asic.NewHashUnit("t2", asic.PolyCRC32C)
	hd := asic.NewHashUnit("td", asic.PolyKoopman)
	seen := map[[2]uint32]bool{}
	for _, tu := range tuples {
		k := AppendKey(nil, tu)
		if inExact[string(k)] {
			continue
		}
		idx1, idx2, d := CuckooSlots(k, arraySize, digestBits, h1, hd, halt)
		c1 := [2]uint32{uint32(idx1), d}
		c2 := [2]uint32{uint32(idx2), d}
		if seen[c1] || seen[c2] {
			t.Fatal("two non-exact tuples still collide: false positive possible")
		}
		seen[c1] = true
		seen[c2] = true
	}
}

func TestExactKeysCountScalesWithDigestWidth(t *testing.T) {
	// Fig. 17: 32-bit digests need far fewer exact entries than 16-bit.
	rng := rand.New(rand.NewSource(23))
	tuples := make([][]uint64, 0, 200000)
	for i := 0; i < 200000; i++ {
		tuples = append(tuples, []uint64{rng.Uint64() & 0xffffffff, rng.Uint64() & 0xffffffff, 6})
	}
	n16 := len(ComputeExactKeys(tuples, 1<<16, 16, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman))
	n32 := len(ComputeExactKeys(tuples, 1<<16, 32, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman))
	if n32 >= n16 && n16 > 0 {
		t.Fatalf("32-bit digest entries (%d) should be fewer than 16-bit (%d)", n32, n16)
	}
}

func TestFieldModValueAt(t *testing.T) {
	list := FieldMod{Kind: ModList, List: []uint64{7, 8, 9}}
	if list.ValueAt(0) != 7 || list.ValueAt(4) != 8 {
		t.Fatal("list ValueAt")
	}
	prog := FieldMod{Kind: ModProgression, Start: 10, End: 20, Step: 5}
	if prog.StreamLen() != 3 {
		t.Fatalf("prog stream len = %d", prog.StreamLen())
	}
	if prog.ValueAt(0) != 10 || prog.ValueAt(1) != 15 || prog.ValueAt(2) != 20 || prog.ValueAt(3) != 10 {
		t.Fatal("progression ValueAt")
	}
}

func TestGeneratedP4Printable(t *testing.T) {
	prog, err := Compile(throughputTask(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := p4ir.Print(prog.P4)
	for _, want := range []string{"accelerator", "replicator_1", "query_1", "control ingress", "control egress"} {
		if !contains(src, want) {
			t.Errorf("generated P4 missing %q", want)
		}
	}
	// Resources should be modest for this small task.
	n := prog.Resources.Normalize(p4ir.SwitchP4Baseline)
	if n.SALU > 100 {
		t.Fatalf("SALU usage %v%% implausible for throughput task", n.SALU)
	}
}

func contains(s, sub string) bool { return indexOf(s, sub) >= 0 }

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCompileICMPTemplate(t *testing.T) {
	task, err := ntapi.Parse("ping", `
T1 = trigger()
    .set([dip, sip, proto], [9.9.9.9, 1.1.0.1, icmp])
    .set(icmp.type, 8)
    .set(icmp.seq, range(0, 99, 1))
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var s netproto.Stack
	if err := s.Decode(prog.Templates[0].Packet.Data); err != nil {
		t.Fatal(err)
	}
	if !s.Has(netproto.LayerICMP) || s.ICMP.Type != 8 {
		t.Fatalf("icmp template: %v %+v", s.Decoded, s.ICMP)
	}
	if prog.Templates[0].StreamLen != 100 {
		t.Fatalf("stream len = %d", prog.Templates[0].StreamLen)
	}
}

func TestCompileVLANTemplate(t *testing.T) {
	task, err := ntapi.Parse("vlan", `
T1 = trigger()
    .set([dip, proto], [9.9.9.9, udp])
    .set(vlan.id, 100)
    .set(length, 68)
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var s netproto.Stack
	if err := s.Decode(prog.Templates[0].Packet.Data); err != nil {
		t.Fatal(err)
	}
	if !s.Has(netproto.LayerVLAN) || s.VLAN.VID != 100 {
		t.Fatalf("vlan template: %v vid=%d", s.Decoded, s.VLAN.VID)
	}
	// VLAN-tagged ICMP is rejected.
	bad, err := ntapi.Parse("badvlan", `
T1 = trigger().set([dip, proto], [9.9.9.9, icmp]).set(vlan.id, 5).set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(bad, Options{}); err == nil {
		t.Fatal("vlan-tagged icmp accepted")
	}
}

func TestCompileIntervalDistribution(t *testing.T) {
	task, err := ntapi.Parse("poisson", `
T1 = trigger()
    .set([dip, proto], [9.9.9.9, udp])
    .set(interval, random('E', 5000, 0))
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	table := prog.Templates[0].IntervalTablePs
	if len(table) != 512 {
		t.Fatalf("interval table size = %d", len(table))
	}
	// Monotonically nondecreasing (inverse CDF) with a plausible mean.
	var sum int64
	for i, v := range table {
		if i > 0 && v < table[i-1] {
			t.Fatalf("interval table not monotone at %d", i)
		}
		sum += v
	}
	meanNs := float64(sum) / float64(len(table)) / 1e3
	if meanNs < 4500 || meanNs > 5500 {
		t.Fatalf("interval table mean = %.0fns, want ~5000", meanNs)
	}
	// Initial threshold seeded from the median.
	if prog.Templates[0].IntervalPs != table[256] {
		t.Fatalf("initial interval = %d, want median %d", prog.Templates[0].IntervalPs, table[256])
	}
	// Bad distributions rejected.
	for _, src := range []string{
		`T1 = trigger().set(interval, random('E', 0, 0)).set(dip, 1.2.3.4).set(port, 0)`,
		`T1 = trigger().set(interval, random('N', 0, 5)).set(dip, 1.2.3.4).set(port, 0)`,
		`T1 = trigger().set(interval, random('U', 9, 5)).set(dip, 1.2.3.4).set(port, 0)`,
	} {
		task, err := ntapi.Parse("bad", src)
		if err != nil {
			continue
		}
		if _, err := Compile(task, Options{}); err == nil {
			t.Fatalf("bad interval distribution accepted: %s", src)
		}
	}
}

func TestCompileDelayQueryPlan(t *testing.T) {
	task, err := ntapi.Parse("d", `
T1 = trigger().set([dip, proto], [9.9.9.9, udp]).set(port, 0)
Q1 = query().delay()
Q2 = query().delay(keys={ipv4.id, l4.sport})
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q1 := prog.Queries[0]
	if q1.Kind != ntapi.KindDelay || len(q1.Keys) != 1 || q1.Keys[0] != asic.FieldIPv4ID {
		t.Fatalf("default delay keys: %+v", q1.Keys)
	}
	q2 := prog.Queries[1]
	if len(q2.Keys) != 2 {
		t.Fatalf("explicit delay keys: %+v", q2.Keys)
	}
}

func TestGeneratedP4CoversAllConstructs(t *testing.T) {
	// A kitchen-sink task: stateless trigger, every editor mod kind,
	// reduce + distinct + delay queries. The generated program must
	// validate and print in both dialects with the expected structures.
	task, err := ntapi.Parse("kitchen", `
T1 = trigger()
    .set([dip, dport, proto, flag], [9.9.9.9, 80, tcp, SYN])
    .set(sport, range(1024, 1279, 1))
    .set(tcp.seq_no, random('N', 1000, 100, 16))
    .set(tcp.window, [10, 20, 30])
    .set(interval, 10us)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1)
    .set([dip, sip], [Q1.sip, Q1.dip])
    .set([proto, flag, ack_no], [tcp, ACK, Q1.seq_no + 1])
Q2 = query().reduce(func=count, keys={ipv4.sip})
Q3 = query().distinct(keys={ipv4.sip, l4.sport})
Q4 = query().delay(keys={ipv4.id})
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.P4.Validate(); err != nil {
		t.Fatal(err)
	}
	src14 := p4ir.Print(prog.P4)
	src16 := p4ir.PrintP416(prog.P4)
	for _, want := range []string{
		"accelerator", "replicator_1", "replicator_2",
		"editor_pop_record_2", // the single wide FIFO pop
		"_rng", "_inv_tbl",    // two-table inverse transform
		"_list", "_prog_tbl", // value list + progression
		"query_2_counter", "query_3_counter", "query_4_delay_tbl",
		"trigger_fifo",
	} {
		if !contains(src14, want) {
			t.Errorf("P4-14 output missing %q", want)
		}
	}
	if !contains(src16, "tna.p4") || !contains(src16, "accelerator.apply();") {
		t.Error("P4-16 output malformed")
	}
	// Exactly one wide record-pop action per stateless template (it
	// appears twice in the source: definition + table action list).
	if n := countOccurrences(src14, "action editor_pop_record_"); n != 1 {
		t.Errorf("record-pop actions = %d, want 1", n)
	}
}

func countOccurrences(s, sub string) int {
	n, i := 0, 0
	for {
		j := indexOf(s[i:], sub)
		if j < 0 {
			return n
		}
		n++
		i += j + len(sub)
	}
}
