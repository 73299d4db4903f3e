package verify

import (
	"math/rand"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/p4ir"
)

// newTestPHV builds a PHV over a minimal UDP frame for table-lookup tests.
func newTestPHV(t *testing.T) *asic.PHV {
	t.Helper()
	raw, err := netproto.BuildUDP(netproto.UDPSpec{})
	if err != nil {
		t.Fatalf("BuildUDP: %v", err)
	}
	return asic.NewPHV(&netproto.Packet{Data: raw})
}

// TestMatchEntriesExactAgainstASIC drives matchEntries and asic.Table with
// the same exact entries and random keys; the chosen action must agree.
func TestMatchEntriesExactAgainstASIC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	phv := newTestPHV(t)

	at := asic.NewTable("x", asic.MatchExact, asic.FieldIPv4Src, asic.FieldIPv4Dst)
	ir := &p4ir.TableDef{
		Name: "x", Match: p4ir.MatchExact,
		Keys: []p4ir.KeyDef{{Field: "ipv4.sip", Bits: 32}, {Field: "ipv4.dip", Bits: 32}},
	}
	fired := -1
	seen := map[[2]uint64]bool{}
	dups := 0
	for i := 0; i < 16; i++ {
		k := [2]uint64{uint64(rng.Intn(8)), uint64(rng.Intn(8))}
		// Both sides get every entry. The IR is first-match, so a duplicate
		// key is shadowed; the asic must refuse it and keep the first.
		idx := len(ir.Entries)
		err := at.AddExact([]uint64{k[0], k[1]}, func(*asic.PHV) { fired = idx })
		if seen[k] {
			dups++
			if err == nil {
				t.Fatalf("entry %d: duplicate key %v accepted", i, k)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		seen[k] = true
		ir.Entries = append(ir.Entries, p4ir.Entry{Values: []uint64{k[0], k[1]}})
	}
	if dups == 0 {
		t.Fatal("no duplicate key drawn; the refusal is untested")
	}

	for trial := 0; trial < 500; trial++ {
		sip, dip := uint64(rng.Intn(10)), uint64(rng.Intn(10))
		asic.FieldIPv4Src.Set(phv, sip)
		asic.FieldIPv4Dst.Set(phv, dip)
		fired = -1
		hitA := at.Apply(phv)
		idxI, hitI := matchEntries(ir, ir.Entries, []uint64{sip, dip})
		if hitA != hitI {
			t.Fatalf("trial %d keys (%d,%d): asic hit=%v interp hit=%v", trial, sip, dip, hitA, hitI)
		}
		if hitA && fired != idxI {
			t.Fatalf("trial %d keys (%d,%d): asic entry %d, interp entry %d", trial, sip, dip, fired, idxI)
		}
	}
}

// TestMatchEntriesTernaryAgainstASIC checks priority and tie-break
// agreement on random value/mask entries.
func TestMatchEntriesTernaryAgainstASIC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	phv := newTestPHV(t)

	at := asic.NewTable("x", asic.MatchTernary, asic.FieldIPv4Src)
	ir := &p4ir.TableDef{
		Name: "x", Match: p4ir.MatchTernary,
		Keys: []p4ir.KeyDef{{Field: "ipv4.sip", Bits: 32}},
	}
	fired := -1
	for i := 0; i < 24; i++ {
		v, m := uint64(rng.Intn(16)), uint64(rng.Intn(16))
		pri := rng.Intn(4)
		idx := len(ir.Entries)
		if err := at.AddTernary([]uint64{v}, []uint64{m}, pri, func(*asic.PHV) { fired = idx }); err != nil {
			t.Fatal(err)
		}
		ir.Entries = append(ir.Entries, p4ir.Entry{Values: []uint64{v}, Masks: []uint64{m}, Priority: pri})
	}

	for trial := 0; trial < 500; trial++ {
		key := uint64(rng.Intn(16))
		asic.FieldIPv4Src.Set(phv, key)
		fired = -1
		hitA := at.Apply(phv)
		idxI, hitI := matchEntries(ir, ir.Entries, []uint64{key})
		if hitA != hitI {
			t.Fatalf("trial %d key %d: asic hit=%v interp hit=%v", trial, key, hitA, hitI)
		}
		if !hitA {
			continue
		}
		// Agreement is on the selected entry's identity, recorded through
		// the action closure: priority ties break in insertion order.
		if fired != idxI {
			t.Fatalf("trial %d key %d: asic entry %d (pri %d), interp entry %d (pri %d)",
				trial, key, fired, ir.Entries[fired].Priority, idxI, ir.Entries[idxI].Priority)
		}
	}
}

// TestMatchEntriesRangeAgainstASIC checks range matching with priorities.
func TestMatchEntriesRangeAgainstASIC(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	phv := newTestPHV(t)

	at := asic.NewTable("x", asic.MatchRange, asic.FieldL4DstPort)
	ir := &p4ir.TableDef{
		Name: "x", Match: p4ir.MatchRange,
		Keys: []p4ir.KeyDef{{Field: "l4.dport", Bits: 16}},
	}
	fired := -1
	for i := 0; i < 12; i++ {
		lo := uint64(rng.Intn(100))
		hi := lo + uint64(rng.Intn(40))
		pri := rng.Intn(3)
		idx := len(ir.Entries)
		if err := at.AddRange(lo, hi, pri, func(*asic.PHV) { fired = idx }); err != nil {
			t.Fatal(err)
		}
		ir.Entries = append(ir.Entries, p4ir.Entry{Lo: lo, Hi: hi, Priority: pri})
	}

	for trial := 0; trial < 500; trial++ {
		key := uint64(rng.Intn(160))
		asic.FieldL4DstPort.Set(phv, key)
		fired = -1
		hitA := at.Apply(phv)
		idxI, hitI := matchEntries(ir, ir.Entries, []uint64{key})
		if hitA != hitI {
			t.Fatalf("trial %d key %d: asic hit=%v interp hit=%v", trial, key, hitA, hitI)
		}
		if !hitA {
			continue
		}
		if a, b := ir.Entries[fired], ir.Entries[idxI]; fired != idxI {
			t.Fatalf("trial %d key %d: asic [%d,%d] pri %d, interp [%d,%d] pri %d",
				trial, key, a.Lo, a.Hi, a.Priority, b.Lo, b.Hi, b.Priority)
		}
	}
}

func TestEvalCondString(t *testing.T) {
	m := &MapMachine{Vals: map[string]uint64{"meta.x": 7}, Valid: map[string]bool{}}
	cases := []struct {
		cond string
		want bool
	}{
		{"true", true},
		{"", true},
		{"meta.x == 7", true},
		{"meta.x != 7", false},
		{"meta.x >= 2 and meta.x <= 10", true},
		{"meta.x < 7", false},
		{"now - last >= interval", false}, // opaque: false on both executors
	}
	for _, c := range cases {
		if got := evalCondString(m, c.cond); got != c.want {
			t.Errorf("evalCondString(%q) = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestMapMachineMirrorsASICQuirks(t *testing.T) {
	wit := Witness{
		Headers: []string{"ethernet", "ipv4", "tcp"},
		Fields:  map[string]uint64{"eth.type": 0x0800, "ipv4.proto": 6, "pkt_len": 128},
	}
	m := NewMapMachine(wit)
	if !m.Valid["tcp"] || m.Valid["udp"] {
		t.Fatalf("validity re-parse wrong: %v", m.Valid)
	}
	m.Set("tcp.flag", 0xFF)
	if got := m.Get("tcp.flag"); got != 0x3f {
		t.Fatalf("tcp.flag mask: got %#x want 0x3f", got)
	}
	m.Set("pkt_len", 9999)
	if got := m.Get("pkt_len"); got != 128 {
		t.Fatalf("pkt_len is read-only: got %d", got)
	}
	m.Set("vlan.id", 5)
	if got := m.Get("vlan.id"); got != 0 {
		t.Fatalf("vlan.id write without VLAN header must drop: got %d", got)
	}
	m.Set("l4.sport", 4242)
	if got := m.Get("tcp.sport"); got != 4242 {
		t.Fatalf("l4.sport should route to tcp.sport: got %d", got)
	}
	m.Set("ipv4.ttl", 0x1FF)
	if got := m.Get("ipv4.ttl"); got != 0xFF {
		t.Fatalf("ipv4.ttl width mask: got %#x", got)
	}
}

// TestInterpSmoke replays a small program end to end: gateway, table hit,
// register bump, recirculation capped.
func TestInterpSmoke(t *testing.T) {
	p := &p4ir.Program{
		Name:    "smoke",
		Headers: []string{"ethernet", "ipv4"},
		Parser:  []p4ir.ParserEdge{{From: "ethernet", To: "ipv4"}},
	}
	p.AddRegister(&p4ir.RegisterDef{Name: "cnt", Width: 32, Size: 1})
	p.AddAction(&p4ir.ActionDef{Name: "spin", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRMW, Dst: "cnt", Src: "+1", Bits: 32},
		{Kind: p4ir.OpRecirculate, Dst: "recirc_port"},
	}})
	p.AddTable(&p4ir.TableDef{
		Name: "accel", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchExact,
		Keys:    []p4ir.KeyDef{{Field: "meta.template_id", Bits: 16}},
		Actions: []string{"spin"}, Size: 1,
		Entries: []p4ir.Entry{{Values: []uint64{3}}},
	})
	p.Ingress = []p4ir.ControlStmt{{
		If:   "meta.template_id != 0",
		Then: []p4ir.ControlStmt{{Apply: "accel"}},
	}}

	in := &Interp{Prog: p}
	wit := Witness{
		Headers: []string{"ethernet", "ipv4"},
		Fields:  map[string]uint64{"eth.type": 0x0800, "meta.template_id": 3},
	}
	out := in.Run(wit)
	// One initial pass plus recircCap recirculated passes, each hitting.
	if want := recircCap + 1; out.Recircs != want {
		t.Fatalf("recircs = %d, want %d (capped)", out.Recircs, want)
	}
	if len(out.Tables) != recircCap+1 || out.Tables[0] != "accel:spin" {
		t.Fatalf("table log wrong: %v", out.Tables)
	}
	if len(out.SALU) == 0 || out.SALU[len(out.SALU)-1] != "cnt:+1:4" {
		t.Fatalf("register trace wrong: %v", out.SALU)
	}

	// A non-template packet misses the gateway entirely.
	out = in.Run(Witness{Headers: []string{"ethernet"}, Fields: map[string]uint64{}})
	if len(out.Tables) != 0 || out.Recircs != 0 {
		t.Fatalf("non-template packet should do nothing: %+v", out)
	}
}
