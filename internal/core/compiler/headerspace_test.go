package compiler

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
)

// diffKeyFields is the pool the differential draws key fields from: every
// field reverseField and fieldMatches treat specially, plus plain ones.
var diffKeyFields = []asic.Field{
	asic.FieldIPv4Src, asic.FieldIPv4Dst, asic.FieldIPv4Proto, asic.FieldIPv4ID, asic.FieldIPv4TTL,
	asic.FieldL4SrcPort, asic.FieldL4DstPort,
	asic.FieldTCPSrcPort, asic.FieldTCPDstPort, asic.FieldUDPSrcPort, asic.FieldUDPDstPort,
}

// diffModFields are the fields the random templates modify.
var diffModFields = []asic.Field{
	asic.FieldIPv4Src, asic.FieldIPv4Dst, asic.FieldIPv4ID, asic.FieldIPv4TTL,
	asic.FieldTCPSrcPort, asic.FieldTCPDstPort, asic.FieldUDPSrcPort, asic.FieldUDPDstPort,
}

// randomMod draws a modification whose value sequence is short and full of
// repeats, so lockstep periods, duplicate tuples and cross-template overlap
// all occur.
func randomMod(rng *rand.Rand, f asic.Field) FieldMod {
	val := func() uint64 { return uint64(rng.Intn(6)) }
	switch rng.Intn(6) {
	case 0: // list with repeated values
		list := make([]uint64, 1+rng.Intn(7))
		for i := range list {
			list[i] = val()
		}
		return FieldMod{Field: f, Kind: ModList, List: list}
	case 1: // progression
		start := val()
		return FieldMod{Field: f, Kind: ModProgression, Start: start, End: start + uint64(rng.Intn(12)), Step: uint64(1 + rng.Intn(3))}
	case 2: // degenerate progressions: one value each
		if rng.Intn(2) == 0 {
			return FieldMod{Field: f, Kind: ModProgression, Start: val(), End: 9, Step: 0}
		}
		return FieldMod{Field: f, Kind: ModProgression, Start: 7, End: 3, Step: 1}
	case 3, 4: // random table with duplicate entries
		table := make([]uint64, 1+rng.Intn(9))
		for i := range table {
			table[i] = val()
		}
		return FieldMod{Field: f, Kind: ModRandom, InvTable: table}
	}
	return FieldMod{Field: f, Kind: ModFromRecord, RecordField: f}
}

func randomTemplate(t *testing.T, rng *rand.Rand, id int) *Template {
	spec := netproto.UDPSpec{
		SrcIP: netproto.IPv4Addr(rng.Intn(4)), DstIP: netproto.IPv4Addr(rng.Intn(4)),
		SrcPort: uint16(rng.Intn(4)), DstPort: uint16(rng.Intn(4)), FrameLen: 64,
	}
	raw, err := netproto.BuildUDP(spec)
	if rng.Intn(2) == 0 {
		raw, err = netproto.BuildTCP(netproto.TCPSpec{
			SrcIP: spec.SrcIP, DstIP: spec.DstIP, SrcPort: spec.SrcPort, DstPort: spec.DstPort, FrameLen: 64,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &Template{ID: id, Packet: &netproto.Packet{Data: raw, Meta: netproto.Meta{TemplateID: id}}}
	for _, f := range diffModFields {
		if rng.Intn(3) == 0 {
			tmpl.Mods = append(tmpl.Mods, randomMod(rng, f))
		}
	}
	return tmpl
}

// setTuples views an enumerated key set as one slice per row.
func setTuples(s *keySet) [][]uint64 {
	var out [][]uint64
	for r := range s.k.sums {
		out = append(out, s.rows[r*s.width:(r+1)*s.width])
	}
	return out
}

// TestHeaderSpaceDifferential pins the hashed enumeration and the
// exact-key kernel to the map-based implementations they replaced: same
// tuples in the same order, same truncated flag, same exact-key list.
func TestHeaderSpaceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	var truncatedCases, exactCases, wideCases, sharedHits int
	for c := 0; c < 800; c++ {
		templates := make([]*Template, 1+rng.Intn(3))
		for i := range templates {
			templates[i] = randomTemplate(t, rng, i+1)
		}
		plan := &QueryPlan{
			Egress:    rng.Intn(2) == 0,
			ArraySize: 1 << rng.Intn(7), // 1 forces idx1 == idx2
			// 1-2 bits make digest 0 (stored as 1) common; >32 is clamped.
			DigestBits: []int{1, 2, 4, 8, 16, 32, 40}[rng.Intn(7)],
			PolyArray1: asic.PolyCRC32, PolyArray2: asic.PolyCRC32C, PolyDigest: asic.PolyKoopman,
		}
		if plan.Egress {
			plan.SentTemplateID = 1 + rng.Intn(len(templates))
		}
		for w := 1 + rng.Intn(6); len(plan.Keys) < w; { // <=4 and >4: both old map paths
			plan.Keys = append(plan.Keys, diffKeyFields[rng.Intn(len(diffKeyFields))])
		}

		full, _ := oracleHeaderSpace(plan, templates, math.MaxInt32)
		caps := []int{len(full) + 1 + rng.Intn(3), len(full), max(len(full)-1, 0), rng.Intn(len(full) + 1)}
		for _, cap := range caps {
			want, wantTrunc := oracleHeaderSpace(plan, templates, cap)
			var wantExact [][]uint64
			if !wantTrunc {
				wantExact = oracleExactKeys(want, plan.ArraySize, plan.DigestBits, plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
			}

			s := newKeySpaces(templates)
			key, sel := s.resolve(plan, cap)
			trunc := s.enumerate(key, sel)
			if got := setTuples(&s.set); trunc != wantTrunc || !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d cap %d: enumeration diverges\n got %v truncated=%v\nwant %v truncated=%v", c, cap, got, trunc, want, wantTrunc)
			}
			sp := s.of(plan, cap)
			if sp.size != len(want) || sp.truncated != wantTrunc || !reflect.DeepEqual(sp.exact, wantExact) {
				t.Fatalf("case %d cap %d: key space diverges: size %d truncated=%v exact %v\nwant size %d truncated=%v exact %v",
					c, cap, sp.size, sp.truncated, sp.exact, len(want), wantTrunc, wantExact)
			}
			if s.of(plan, cap) != sp {
				t.Fatalf("case %d: second request re-enumerated", c)
			}
			// The same space seen from the other direction must be shared,
			// not re-enumerated: a received-traffic query over the reversed
			// fields of a single-template program.
			if plan.Egress && len(templates) == 1 {
				rev := *plan
				rev.Egress, rev.SentTemplateID, rev.Keys = false, 0, nil
				for _, k := range plan.Keys {
					rev.Keys = append(rev.Keys, reverseField(k))
				}
				if s.of(&rev, cap) != sp {
					t.Fatalf("case %d: reversed received query did not share the sent query's space", c)
				}
				sharedHits++
			}
			if wantTrunc {
				truncatedCases++
			}
			if len(wantExact) > 0 {
				exactCases++
			}
			if len(plan.Keys) > 4 {
				wideCases++
			}
		}
	}
	t.Logf("coverage: %d truncated, %d exact, %d wide, %d shared", truncatedCases, exactCases, wideCases, sharedHits)
	if truncatedCases < 100 || exactCases < 100 || wideCases < 100 || sharedHits < 20 {
		t.Fatalf("weak coverage: %d truncated, %d with exact keys, %d wide-key, %d shared", truncatedCases, exactCases, wideCases, sharedHits)
	}
}

// TestExactKeyKernelDifferential compares the three entry points of the
// exact-key kernel with the old implementation on populations with repeated
// keys, tiny arrays (idx1 == idx2) and narrow digests (0 stored as 1).
func TestExactKeyKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := NewExactKeyKernel(asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
	sawSameSlot, sawZeroDigest := false, false
	h1 := asic.NewHashUnit("t1", asic.PolyCRC32)
	halt := asic.NewHashUnit("t2", asic.PolyCRC32C)
	hd := asic.NewHashUnit("td", asic.PolyKoopman)
	for c := 0; c < 600; c++ {
		width := 1 + rng.Intn(6)
		n := rng.Intn(400)
		arraySize := 1 << rng.Intn(10)
		digestBits := []int{1, 2, 3, 8, 12, 16, 32, 33}[rng.Intn(8)]
		rows := make([]uint64, n*width)
		tuples := make([][]uint64, n)
		for i := range tuples {
			tuples[i] = rows[i*width : (i+1)*width]
			for j := range tuples[i] {
				tuples[i][j] = uint64(rng.Intn(8)) // repeats are common
			}
			idx1, idx2, _ := CuckooSlots(AppendKey(nil, tuples[i]), arraySize, digestBits, h1, hd, halt)
			sawSameSlot = sawSameSlot || idx1 == idx2
			sawZeroDigest = sawZeroDigest || hd.Digest(AppendKey(nil, tuples[i]), digestBits) == 0
		}
		want := oracleExactKeys(tuples, arraySize, digestBits, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
		if got := ComputeExactKeys(tuples, arraySize, digestBits, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: ComputeExactKeys = %v, want %v", c, got, want)
		}
		// The kernel is reused across cases: stale scratch must not leak.
		if got := k.ExactKeys(rows, width, arraySize, digestBits); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: ExactKeys = %v, want %v", c, got, want)
		}
		// One hashed population, a second geometry.
		want2 := oracleExactKeys(tuples, 2*arraySize, 32, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
		if got := k.ExactRows(2*arraySize, 32); len(got) != len(want2) {
			t.Fatalf("case %d: re-used hashes gave %d exact rows, want %d", c, len(got), len(want2))
		}
	}
	if !sawSameSlot || !sawZeroDigest {
		t.Fatalf("weak coverage: idx1==idx2 seen=%v, digest 0 seen=%v", sawSameSlot, sawZeroDigest)
	}

	// Heavy load, as in Fig. 17 (256 keys per slot): 64-256 distinct keys
	// per slot and 1-8-bit digests, so every cell is claimed many times over
	// and the cell set's probe runs are long.
	for c := 0; c < 60; c++ {
		width := 1 + rng.Intn(3)
		arraySize := 1 << rng.Intn(7)
		n := arraySize * (64 + rng.Intn(193))
		digestBits := 1 + rng.Intn(8)
		rows := make([]uint64, n*width)
		for i := range rows {
			rows[i] = rng.Uint64()
		}
		tuples := make([][]uint64, n)
		for i := range tuples {
			tuples[i] = rows[i*width : (i+1)*width]
		}
		want := oracleExactKeys(tuples, arraySize, digestBits, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
		if got := ComputeExactKeys(tuples, arraySize, digestBits, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman); !reflect.DeepEqual(got, want) {
			t.Fatalf("heavy case %d (%d keys, %d slots, %d-bit digests): ComputeExactKeys gives %d keys, want %d",
				c, n, arraySize, digestBits, len(got), len(want))
		}
		if got := k.ExactKeys(rows, width, arraySize, digestBits); !reflect.DeepEqual(got, want) {
			t.Fatalf("heavy case %d: ExactKeys gives %d keys, want %d", c, len(got), len(want))
		}
		// At most 2^digestBits cells per slot can be free of collisions.
		if free := n - len(want); free > 2*arraySize<<digestBits {
			t.Fatalf("heavy case %d: %d of %d keys collide with nothing", c, free, n)
		}
	}
}

// compileProgression compiles one trigger sweeping n source addresses and a
// received-traffic distinct over the responders, capped at cap tuples.
func compileProgression(t *testing.T, n, cap int, extra ...func(*ntapi.Task)) *Program {
	t.Helper()
	task := ntapi.NewTask("sweep")
	task.Trigger().
		Set("sip", ntapi.IP("1.1.0.1")).
		Set("dip", ntapi.Range{Start: 0x0a000000, End: 0x0a000000 + uint64(n) - 1, Step: 1}).
		WithPorts(0)
	for _, f := range extra {
		f(task)
	}
	task.Query().Distinct("ipv4.sip")
	prog, err := Compile(task, Options{MaxHeaderSpace: cap})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestHeaderSpaceTruncationBoundary: exactly MaxHeaderSpace distinct tuples
// is a complete space (table5_ipscan sits on 1<<16); one more is truncated,
// recorded on the plan, and leaves the query without exact keys.
func TestHeaderSpaceTruncationBoundary(t *testing.T) {
	const cap = 1 << 16
	q := compileProgression(t, cap, cap).Queries[0]
	if q.HeaderSpaceTruncated || q.HeaderSpaceSize != cap || q.ExactKeys == nil {
		t.Fatalf("space of exactly cap tuples: size %d truncated=%v exact nil=%v, want complete",
			q.HeaderSpaceSize, q.HeaderSpaceTruncated, q.ExactKeys == nil)
	}
	q = compileProgression(t, cap+1, cap).Queries[0]
	if !q.HeaderSpaceTruncated || q.HeaderSpaceSize != cap || q.ExactKeys != nil {
		t.Fatalf("space of cap+1 tuples: size %d truncated=%v exact=%d, want truncated at cap with no exact keys",
			q.HeaderSpaceSize, q.HeaderSpaceTruncated, len(q.ExactKeys))
	}
	// The extra tuple may also come from a second template.
	second := func(task *ntapi.Task) {
		task.Trigger().Set("sip", ntapi.IP("1.1.0.1")).Set("dip", ntapi.IP("11.0.0.1")).WithPorts(0)
	}
	q = compileProgression(t, cap, cap, second).Queries[0]
	if !q.HeaderSpaceTruncated || q.HeaderSpaceSize != cap {
		t.Fatalf("cap tuples plus one from a second template: size %d truncated=%v, want truncated", q.HeaderSpaceSize, q.HeaderSpaceTruncated)
	}
	q = compileProgression(t, cap-1, cap, second).Queries[0]
	if q.HeaderSpaceTruncated || q.HeaderSpaceSize != cap {
		t.Fatalf("cap-1 tuples plus one from a second template: size %d truncated=%v, want complete", q.HeaderSpaceSize, q.HeaderSpaceTruncated)
	}
}

func TestLCMSaturates(t *testing.T) {
	const limit = 1 << 21
	for _, c := range []struct{ a, b, want uint64 }{
		{4, 6, 12},
		{0, 6, 0},
		{6, 0, 0},
		{1 << 20, 1 << 21, limit}, // exactly the limit is representable
		{1 << 20, 3, limit + 1},   // past it saturates
		{limit + 1, 1, limit + 1},
		{limit + 1, 7, limit + 1}, // saturation is sticky
	} {
		if got := lcmSat(c.a, c.b, limit); got != c.want {
			t.Errorf("lcmSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Three long coprime progressions: the true LCM (~2^96) wraps uint64,
	// and the unsaturated lcm handed enumeration whatever was left.
	p1, p2, p3 := uint64(4294967291), uint64(4294967279), uint64(4294967231)
	if w := oracleLCM(oracleLCM(p1, p2), p3); w%p1 == 0 && w%p2 == 0 && w%p3 == 0 {
		t.Fatalf("expected the unsaturated lcm to wrap, got common multiple %d", w)
	}
	if got := lcmSat(lcmSat(lcmSat(1, p1, limit), p2, limit), p3, limit); got != limit+1 {
		t.Fatalf("three coprime 32-bit periods: period %d, want saturation at %d", got, limit+1)
	}
	// The product must not be formed before the comparison: 5<<62 wraps.
	const big = math.MaxUint64 / 2
	if got := lcmSat(1<<62, 5, big); got != big+1 {
		t.Fatalf("lcmSat(1<<62, 5) = %d, want saturation at %d", got, uint64(big+1))
	}
}

// TestQueriesShareKeySpaces: within one Compile, queries over the same key
// space get the same exact-key list; different spaces do not.
func TestQueriesShareKeySpaces(t *testing.T) {
	task := ntapi.NewTask("share")
	tr := task.Trigger().
		Set("sip", ntapi.IP("1.1.0.1")).Set("dip", ntapi.IP("9.9.9.9")).
		Set("ipv4.id", ntapi.Range{Start: 0, End: 4095, Step: 1}).
		WithPorts(0)
	task.QueryOf(tr).Reduce(ntapi.AggCount, "ipv4.id") // sent
	task.Query().Reduce(ntapi.AggCount, "ipv4.id")     // received: ipv4.id reverses to itself
	task.Query().Reduce(ntapi.AggCount, "ipv4.sip")    // another space
	prog, err := Compile(task, Options{ArraySize: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	sent, recv, other := prog.Queries[0], prog.Queries[1], prog.Queries[2]
	if sent.HeaderSpaceSize != 4096 || recv.HeaderSpaceSize != 4096 || other.HeaderSpaceSize != 1 {
		t.Fatalf("sizes %d %d %d, want 4096 4096 1", sent.HeaderSpaceSize, recv.HeaderSpaceSize, other.HeaderSpaceSize)
	}
	if len(sent.ExactKeys) == 0 || &sent.ExactKeys[0] != &recv.ExactKeys[0] {
		t.Fatalf("sent and received queries over ipv4.id do not share one exact-key list (%d, %d entries)",
			len(sent.ExactKeys), len(recv.ExactKeys))
	}
	if len(other.ExactKeys) != 0 {
		t.Fatalf("single-tuple space got %d exact keys", len(other.ExactKeys))
	}
}

// TestTupleMatrixProbeFindGrow: rows keep their numbers and contents while
// the index grows from its 16-slot minimum, Find never adds, and a tuple of
// the wrong width is a caller bug.
func TestTupleMatrixProbeFindGrow(t *testing.T) {
	for width := 0; width <= 3; width++ {
		m := NewTupleMatrix(width, 0)
		n := 5000
		if width == 0 {
			n = 1 // the empty tuple is the only 0-wide key
		}
		tuple := func(i int) []uint64 {
			t := make([]uint64, width)
			for w := range t {
				t[w] = uint64(i) >> uint(4*w) // high words repeat across rows
			}
			return t
		}
		for i := 0; i < n; i++ {
			if m.Find(tuple(i)) != -1 {
				t.Fatalf("width %d: tuple %d found before it was added", width, i)
			}
			if row, added := m.Probe(tuple(i)); row != i || !added {
				t.Fatalf("width %d: first Probe(%d) = %d, %v", width, i, row, added)
			}
		}
		for i := 0; i < n; i++ {
			if row, added := m.Probe(tuple(i)); row != i || added {
				t.Fatalf("width %d: second Probe(%d) = %d, %v", width, i, row, added)
			}
			if m.Find(tuple(i)) != i || !slices.Equal(m.Row(i), tuple(i)) {
				t.Fatalf("width %d: row %d lost", width, i)
			}
		}
		if m.n != n {
			t.Fatalf("width %d: %d rows, want %d", width, m.n, n)
		}
		if m.Find(make([]uint64, width+1)) != -1 {
			t.Fatalf("width %d: found a %d-wide tuple", width, width+1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: Probe took a %d-wide tuple", width, width+1)
				}
			}()
			m.Probe(make([]uint64, width+1))
		}()
	}
}
