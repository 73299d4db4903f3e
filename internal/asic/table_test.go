package asic

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/hypertester/hypertester/internal/netproto"
)

func udpPHV(t *testing.T, sport, dport uint16) *PHV {
	t.Helper()
	raw, err := netproto.BuildUDP(netproto.UDPSpec{
		SrcIP: netproto.MustIPv4("10.0.0.1"), DstIP: netproto.MustIPv4("10.0.0.2"),
		SrcPort: sport, DstPort: dport, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewPHV(&netproto.Packet{Data: raw})
}

func tcpPHV(t *testing.T, sport, dport uint16, flags uint8) *PHV {
	t.Helper()
	raw, err := netproto.BuildTCP(netproto.TCPSpec{
		SrcIP: netproto.MustIPv4("1.1.0.1"), DstIP: netproto.MustIPv4("9.9.9.9"),
		SrcPort: sport, DstPort: dport, Flags: flags, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewPHV(&netproto.Packet{Data: raw})
}

func TestExactTable(t *testing.T) {
	tbl := NewTable("fwd", MatchExact, FieldUDPDstPort)
	var hitPort uint64
	if err := tbl.AddExact([]uint64{53}, func(p *PHV) { hitPort = 53; p.EgressPort = 7 }); err != nil {
		t.Fatal(err)
	}
	// A duplicate key is refused and the first entry stays: the IR is
	// first-match, and P4Runtime rejects a duplicate entry.
	if err := tbl.AddExact([]uint64{53}, func(p *PHV) { p.EgressPort = 9 }); err == nil {
		t.Fatal("duplicate exact key accepted")
	}

	p := udpPHV(t, 1000, 53)
	if !tbl.Apply(p) {
		t.Fatal("expected hit")
	}
	if hitPort != 53 || p.EgressPort != 7 {
		t.Fatalf("action did not run: port=%d egress=%d", hitPort, p.EgressPort)
	}

	p2 := udpPHV(t, 1000, 80)
	p2.EgressPort = 3
	if tbl.Apply(p2) {
		t.Fatal("expected miss")
	}
	if p2.EgressPort != 3 {
		t.Fatal("a miss ran an action")
	}
}

func TestExactTableMultiKey(t *testing.T) {
	tbl := NewTable("pair", MatchExact, FieldUDPSrcPort, FieldUDPDstPort)
	matched := false
	if err := tbl.AddExact([]uint64{1000, 53}, func(p *PHV) { matched = true }); err != nil {
		t.Fatal(err)
	}
	tbl.Apply(udpPHV(t, 1000, 53))
	if !matched {
		t.Fatal("multi-key exact entry missed")
	}
	matched = false
	tbl.Apply(udpPHV(t, 53, 1000)) // swapped must not match
	if matched {
		t.Fatal("swapped key matched")
	}
}

// TestExactTableFiveTuple: a 5-tuple key hits on its flow and misses on a
// flow that differs in the last field, and a key wider than the table
// accepts is refused at NewTable.
func TestExactTableFiveTuple(t *testing.T) {
	tbl := NewTable("flows", MatchExact, FieldIPv4Src, FieldIPv4Dst, FieldIPv4Proto, FieldL4SrcPort, FieldL4DstPort)
	src, dst := uint64(netproto.MustIPv4("10.0.0.1")), uint64(netproto.MustIPv4("10.0.0.2"))
	hits := 0
	if err := tbl.AddExact([]uint64{src, dst, uint64(netproto.IPProtoUDP), 1000, 53}, func(p *PHV) { hits++ }); err != nil {
		t.Fatal(err)
	}
	if !tbl.Apply(udpPHV(t, 1000, 53)) || hits != 1 {
		t.Fatalf("5-tuple flow missed its entry (%d action runs)", hits)
	}
	if tbl.Apply(udpPHV(t, 1000, 54)) || hits != 1 {
		t.Fatalf("a flow differing in the destination port hit (%d action runs)", hits)
	}
	wide := make([]Field, maxTableKeys+1)
	for i := range wide {
		wide[i] = FieldIPv4Src
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewTable accepted a %d-field key", len(wide))
		}
	}()
	NewTable("wide", MatchExact, wide...)
}

func TestExactTableKeyArityChecked(t *testing.T) {
	tbl := NewTable("pair", MatchExact, FieldUDPSrcPort, FieldUDPDstPort)
	if err := tbl.AddExact([]uint64{1}, nil); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestTernaryPriority(t *testing.T) {
	tbl := NewTable("acl", MatchTernary, FieldTCPFlags)
	var got string
	// Low priority: any packet.
	if err := tbl.AddTernary([]uint64{0}, []uint64{0}, 1, func(p *PHV) { got = "any" }); err != nil {
		t.Fatal(err)
	}
	// High priority: SYN set (masked match on the SYN bit).
	syn := uint64(netproto.TCPSyn)
	if err := tbl.AddTernary([]uint64{syn}, []uint64{syn}, 10, func(p *PHV) { got = "syn" }); err != nil {
		t.Fatal(err)
	}
	tbl.Apply(tcpPHV(t, 1, 2, netproto.TCPSyn|netproto.TCPAck))
	if got != "syn" {
		t.Fatalf("got %q, want syn (priority order)", got)
	}
	tbl.Apply(tcpPHV(t, 1, 2, netproto.TCPAck))
	if got != "any" {
		t.Fatalf("got %q, want any", got)
	}
}

func TestTernaryWrongKind(t *testing.T) {
	tbl := NewTable("x", MatchExact, FieldTCPFlags)
	if err := tbl.AddTernary([]uint64{0}, []uint64{0}, 0, nil); err == nil {
		t.Fatal("AddTernary on exact table accepted")
	}
	tbl2 := NewTable("y", MatchTernary, FieldTCPFlags)
	if err := tbl2.AddExact([]uint64{0}, nil); err == nil {
		t.Fatal("AddExact on ternary table accepted")
	}
}

func TestRangeTable(t *testing.T) {
	tbl := NewTable("ports", MatchRange, FieldTCPDstPort)
	var got string
	if err := tbl.AddRange(80, 90, 1, func(p *PHV) { got = "web" }); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRange(85, 85, 10, func(p *PHV) { got = "special" }); err != nil {
		t.Fatal(err)
	}
	tbl.Apply(tcpPHV(t, 1, 82, 0))
	if got != "web" {
		t.Fatalf("got %q", got)
	}
	tbl.Apply(tcpPHV(t, 1, 85, 0))
	if got != "special" {
		t.Fatalf("got %q, want special (priority)", got)
	}
	if tbl.Apply(tcpPHV(t, 1, 100, 0)) {
		t.Fatal("out-of-range value matched")
	}
	if err := tbl.AddRange(9, 3, 0, nil); err == nil {
		t.Fatal("lo>hi range accepted")
	}
}

func TestRangeTableSingleKeyOnly(t *testing.T) {
	tbl := NewTable("bad", MatchRange, FieldTCPDstPort, FieldTCPSrcPort)
	if err := tbl.AddRange(1, 2, 0, nil); err == nil {
		t.Fatal("multi-key range table accepted")
	}
}

// TestTableApplyZeroAllocs pins that Apply stays off the heap for all three
// match kinds, and for an exact key wider than four fields.
func TestTableApplyZeroAllocs(t *testing.T) {
	p := tcpPHV(t, 1, 80, 0)

	exact := NewTable("z-exact", MatchExact, FieldTCPDstPort)
	if err := exact.AddExact([]uint64{80}, nil); err != nil {
		t.Fatal(err)
	}
	tern := NewTable("z-tern", MatchTernary, FieldTCPDstPort, FieldTCPSrcPort)
	if err := tern.AddTernary([]uint64{80, 0}, []uint64{0xffff, 0}, 1, nil); err != nil {
		t.Fatal(err)
	}
	rng := NewTable("z-range", MatchRange, FieldTCPDstPort)
	if err := rng.AddRange(1, 1024, 1, nil); err != nil {
		t.Fatal(err)
	}
	wide := NewTable("z-wide", MatchExact, FieldIPv4Src, FieldIPv4Dst, FieldIPv4Proto, FieldL4SrcPort, FieldL4DstPort)
	if err := wide.AddExact([]uint64{uint64(netproto.MustIPv4("1.1.0.1")), uint64(netproto.MustIPv4("9.9.9.9")), uint64(netproto.IPProtoTCP), 1, 80}, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tbl  *Table
	}{{"exact", exact}, {"ternary", tern}, {"range", rng}, {"5-key exact", wide}} {
		tbl := tc.tbl
		if avg := testing.AllocsPerRun(200, func() { tbl.Apply(p) }); avg != 0 {
			t.Fatalf("%s Apply allocates %v allocs/op, want 0", tc.name, avg)
		}
	}
}

func TestPipelineStopsOnDrop(t *testing.T) {
	pl := NewPipeline("test")
	ran := 0
	pl.Add(ProcessorFunc(func(p *PHV) { ran++; p.Drop = true }))
	pl.Add(ProcessorFunc(func(p *PHV) { ran++ }))
	pl.Run(udpPHV(t, 1, 2))
	if ran != 1 {
		t.Fatalf("stages ran after drop: %d", ran)
	}
	if pl.Packets != 1 {
		t.Fatalf("Packets = %d", pl.Packets)
	}
}

func TestRegisterRMW(t *testing.T) {
	r := NewRegisterArray("ctr", 4)
	out := r.RMW(2, func(old uint64) (uint64, uint64) { return old + 5, old })
	if out != 0 {
		t.Fatalf("first RMW out = %d, want 0 (old value)", out)
	}
	if r.Read(2) != 5 {
		t.Fatalf("cell = %d, want 5", r.Read(2))
	}
	if r.Accesses != 2 {
		t.Fatalf("accesses = %d, want 2", r.Accesses)
	}
	r.Write(0, 9)
	snap := r.Snapshot(0, 4)
	if snap[0] != 9 || snap[2] != 5 {
		t.Fatalf("snapshot = %v", snap)
	}
	r.Write(0, 10)
	if snap[0] != 9 {
		t.Fatal("snapshot aliases live cells")
	}
}

func TestRegisterOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range register access did not panic")
		}
	}()
	NewRegisterArray("x", 2).Read(5)
}

func TestHashUnitsIndependent(t *testing.T) {
	h1 := NewHashUnit("h1", PolyCRC32)
	h2 := NewHashUnit("h2", PolyCRC32C)
	data := []byte("the same key bytes")
	if h1.Sum(data) == h2.Sum(data) {
		t.Fatal("different polynomials produced identical sums")
	}
	if h1.Sum(data) != h1.Sum(data) {
		t.Fatal("hash not deterministic")
	}
}

func TestHashKnownCRC32(t *testing.T) {
	// CRC-32 of "123456789" is the classic check value 0xCBF43926.
	h := NewHashUnit("crc32", PolyCRC32)
	if got := h.Sum([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("crc32 check = %#x, want 0xCBF43926", got)
	}
}

func TestHashDigestWidth(t *testing.T) {
	h := NewHashUnit("d", PolyCRC32)
	d := h.Digest([]byte("key"), 16)
	if d > 0xffff {
		t.Fatalf("16-bit digest out of range: %#x", d)
	}
	if h.Digest([]byte("key"), 32) != h.Sum([]byte("key")) {
		t.Fatal("32-bit digest must equal full sum")
	}
	idx := h.Index([]byte("key"), 100)
	if idx < 0 || idx >= 100 {
		t.Fatalf("index out of range: %d", idx)
	}
}

func TestFieldGetSetRoundTrip(t *testing.T) {
	p := tcpPHV(t, 1111, 2222, netproto.TCPSyn)
	fields := map[Field]uint64{
		FieldIPv4Src:    0x0a000001,
		FieldIPv4Dst:    0x0a000002,
		FieldIPv4TTL:    13,
		FieldTCPSrcPort: 4096,
		FieldTCPDstPort: 80,
		FieldTCPSeq:     99999,
		FieldTCPAck:     12,
		FieldTCPFlags:   uint64(netproto.TCPSyn | netproto.TCPAck),
		FieldEthSrc:     0x112233445566,
	}
	for f, v := range fields {
		f.Set(p, v)
		if got := f.Get(p); got != v {
			t.Errorf("%v: get after set = %#x, want %#x", f, got, v)
		}
	}
	if !p.Dirty {
		t.Fatal("Set did not mark PHV dirty")
	}
}

// TestPooledPHVReadsLikeFresh: a PHV from the switch's pool reads every field
// as a fresh PHV of the same frame does, whatever frame it held before — a
// layer the parser did not extract reads zero, not the last packet's header.
// Covered: the ingress parse (acquirePHV) and a multicast copy's headers
// (acquireCopy), after a VLAN-tagged TCP frame with every layer written.
func TestPooledPHVReadsLikeFresh(t *testing.T) {
	_, sw := newTestSwitch(t, 1)
	build := func(vlan bool) *netproto.Packet {
		t.Helper()
		var raw []byte
		var err error
		if vlan {
			raw, err = netproto.BuildTCP(netproto.TCPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Seq: 5, Flags: netproto.TCPSyn, FrameLen: 68, VLAN: true, VlanID: 7})
		} else {
			raw, err = netproto.BuildICMP(netproto.ICMPSpec{SrcIP: 1, DstIP: 2, Type: 8, Ident: 9, FrameLen: 64})
		}
		if err != nil {
			t.Fatal(err)
		}
		return &netproto.Packet{Data: raw}
	}
	dirty := func() *PHV {
		p := sw.acquirePHV(build(true))
		if got := FieldVlanID.Get(p); got != 7 {
			t.Fatalf("tagged frame reads vlan.id %d, want 7", got)
		}
		for f := Field(1); f < numFields; f++ {
			f.Set(p, 1)
		}
		return p
	}
	check := func(how string, p *PHV) {
		t.Helper()
		fresh := NewPHV(build(false))
		for f := Field(1); f < numFields; f++ {
			if got, want := f.Get(p), f.Get(fresh); got != want {
				t.Errorf("%s: %v reads %d, a fresh PHV %d", how, f, got, want)
			}
		}
	}

	sw.releasePHV(dirty())
	p := sw.acquirePHV(build(false))
	check("re-acquired for an untagged frame", p)

	sw.releasePHV(dirty())
	cp := sw.acquireCopy(p, nil)
	check("copy of an untagged frame's PHV", cp)
}

func TestFieldByName(t *testing.T) {
	cases := map[string]Field{
		"ipv4.dip":  FieldIPv4Dst,
		"dip":       FieldIPv4Dst,
		"sport":     FieldL4SrcPort,
		"tcp_flag":  FieldTCPFlags,
		"seq_no":    FieldTCPSeq,
		"pkt_len":   FieldPktLen,
		"udp.dport": FieldUDPDstPort,
	}
	for name, want := range cases {
		got, err := FieldByName(name)
		if err != nil || got != want {
			t.Errorf("FieldByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := FieldByName("nope.nope"); err == nil {
		t.Fatal("unknown field resolved")
	}
}

func TestFieldWidthsAndMax(t *testing.T) {
	if FieldTCPSrcPort.Width() != 16 || FieldTCPSrcPort.MaxValue() != 65535 {
		t.Fatal("tcp.sport width/max wrong")
	}
	if FieldIPv4Src.MaxValue() != 0xffffffff {
		t.Fatal("ipv4.sip max wrong")
	}
	if FieldEthSrc.MaxValue() != 1<<48-1 {
		t.Fatal("eth.src max wrong")
	}
}

func TestPHVDeparseRewritesWire(t *testing.T) {
	p := tcpPHV(t, 1111, 80, netproto.TCPSyn)
	FieldIPv4Dst.Set(p, uint64(netproto.MustIPv4("99.99.99.99")))
	FieldTCPDstPort.Set(p, 443)
	FieldTCPSeq.Set(p, 777)
	p.Deparse()

	var s netproto.Stack
	if err := s.Decode(p.Pkt.Data); err != nil {
		t.Fatal(err)
	}
	if s.IP4.Dst != netproto.MustIPv4("99.99.99.99") {
		t.Fatalf("dst = %v", s.IP4.Dst)
	}
	if s.TCP.DstPort != 443 || s.TCP.Seq != 777 {
		t.Fatalf("tcp = %+v", s.TCP)
	}
	// Checksums must be valid after rewrite.
	if !s.IP4.VerifyChecksum(p.Pkt.Data[netproto.EthernetLen:]) {
		t.Fatal("IPv4 checksum invalid after deparse")
	}
	if len(p.Pkt.Data) != 64 {
		t.Fatalf("deparse changed frame length: %d", len(p.Pkt.Data))
	}
}

func TestPHVDeparseUDPChecksum(t *testing.T) {
	p := udpPHV(t, 5000, 53)
	FieldUDPDstPort.Set(p, 123)
	p.Deparse()
	var s netproto.Stack
	if err := s.Decode(p.Pkt.Data); err != nil {
		t.Fatal(err)
	}
	if s.UDP.DstPort != 123 {
		t.Fatalf("udp dport = %d", s.UDP.DstPort)
	}
	// Verify the UDP checksum over the rewritten datagram.
	off := netproto.EthernetLen + netproto.IPv4MinLen
	seg := p.Pkt.Data[off : off+int(s.UDP.Length)]
	sum := netproto.PseudoHeaderSum(uint32(s.IP4.Src), uint32(s.IP4.Dst), netproto.IPProtoUDP, len(seg))
	if netproto.FoldChecksum(netproto.Checksum(sum, seg)) != 0 {
		t.Fatal("UDP checksum invalid after deparse")
	}
}

func TestPHVDeparseNoopWhenClean(t *testing.T) {
	p := udpPHV(t, 1, 2)
	before := string(p.Pkt.Data)
	p.Deparse()
	if string(p.Pkt.Data) != before {
		t.Fatal("clean deparse rewrote bytes")
	}
}

// Property: any in-range field writes survive deparse -> re-decode, and the
// rewritten packet's checksums verify.
func TestDeparseRoundTripProperty(t *testing.T) {
	f := func(sip, dip uint32, sport, dport uint16, seq, ack uint32, flags uint8, ttl uint8) bool {
		p := tcpPHV(t, 1, 2, netproto.TCPSyn)
		if ttl == 0 {
			ttl = 1
		}
		writes := map[Field]uint64{
			FieldIPv4Src:    uint64(sip),
			FieldIPv4Dst:    uint64(dip),
			FieldIPv4TTL:    uint64(ttl),
			FieldTCPSrcPort: uint64(sport),
			FieldTCPDstPort: uint64(dport),
			FieldTCPSeq:     uint64(seq),
			FieldTCPAck:     uint64(ack),
			FieldTCPFlags:   uint64(flags & 0x3f),
		}
		for fld, v := range writes {
			fld.Set(p, v)
		}
		p.Deparse()
		var s netproto.Stack
		if err := s.Decode(p.Pkt.Data); err != nil {
			return false
		}
		reparsed := NewPHV(p.Pkt)
		for fld, v := range writes {
			if fld.Get(reparsed) != v {
				return false
			}
		}
		return s.IP4.VerifyChecksum(p.Pkt.Data[netproto.EthernetLen:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// After replication (DESIGN.md §9.9): the replicated PHV's headers are
	// a fresh parse of its frame, checksums included, and so are those of
	// every copy's egress PHV, over UDP, TCP, ICMP and VLAN frames.
	sim, sw := benchTestSwitch(t, 3)
	if err := sw.Mcast.SetGroup(1, []CopySpec{{Port: 1, Rid: 1}, {Port: 2, Rid: 2}}); err != nil {
		t.Fatal(err)
	}
	var writes []func(p *PHV)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
		for _, w := range writes {
			w(p)
		}
		p.McastGroup = 1
	}))
	var mismatch string
	copies := 0
	sw.Egress.Add(ProcessorFunc(func(p *PHV) {
		copies++
		if got, want := parsedHeaders(&p.Stack), framesParse(p.Pkt.Data); got != want {
			mismatch = fmt.Sprintf("copy %d egress PHV\n%s\nparse of its frame\n%s", p.Meta.ReplicaID, got, want)
		}
	}))
	frames := map[string]func(seed uint16) ([]byte, error){
		"udp": func(seed uint16) ([]byte, error) {
			return netproto.BuildUDP(netproto.UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: seed, DstPort: 9, FrameLen: 64 + int(seed%900)})
		},
		"tcp": func(seed uint16) ([]byte, error) {
			return netproto.BuildTCP(netproto.TCPSpec{SrcIP: 1, DstIP: 2, SrcPort: seed, DstPort: 80, Flags: netproto.TCPSyn, FrameLen: 64 + int(seed%900)})
		},
		"icmp": func(seed uint16) ([]byte, error) {
			return netproto.BuildICMP(netproto.ICMPSpec{SrcIP: 1, DstIP: 2, Type: 8, Ident: seed, FrameLen: 64 + int(seed%900)})
		},
		"vlan": func(seed uint16) ([]byte, error) {
			return netproto.BuildTCP(netproto.TCPSpec{SrcIP: 1, DstIP: 2, SrcPort: seed, DstPort: 80, FrameLen: 68 + int(seed%900), VLAN: true, VlanID: 7})
		},
	}
	fields := []Field{FieldEthSrc, FieldVlanID, FieldVlanPCP, FieldIPv4Src, FieldIPv4Dst, FieldIPv4TTL, FieldIPv4TOS, FieldIPv4ID,
		FieldTCPSrcPort, FieldTCPSeq, FieldTCPAck, FieldTCPFlags, FieldTCPWindow, FieldUDPSrcPort, FieldUDPDstPort,
		FieldICMPType, FieldICMPIdent, FieldICMPSeq}
	for name, build := range frames {
		g := func(seed uint16, picks uint32, vals [4]uint64) bool {
			raw, err := build(seed)
			if err != nil {
				t.Fatal(err)
			}
			writes = writes[:0]
			for i := 0; i < int(picks%5); i++ {
				fld, v := fields[(picks>>(3+5*i))%uint32(len(fields))], vals[i%4]
				writes = append(writes, func(p *PHV) { fld.Set(p, v&(1<<fld.Width()-1)) })
			}
			// What replicate does to the replicated PHV.
			p := NewPHV(&netproto.Packet{Data: append([]byte(nil), raw...)})
			for _, w := range writes {
				w(p)
			}
			p.settle()
			if got, want := parsedHeaders(&p.Stack), framesParse(p.Pkt.Data); got != want {
				t.Errorf("%s: replicated PHV\n%s\nparse of its frame\n%s", name, got, want)
				return false
			}
			copies, mismatch = 0, ""
			sw.Port(0).Receive(&netproto.Packet{Data: raw})
			sim.Run()
			if mismatch != "" || copies != 2 {
				t.Errorf("%s: %d copies; %s", name, copies, mismatch)
				return false
			}
			return true
		}
		if err := quick.Check(g, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(name, err)
		}
	}
}

// parsedHeaders renders every header a parse extracted, checksums included.
func parsedHeaders(s *netproto.Stack) string {
	out := fmt.Sprintf("%v payload@%d+%d", s.Decoded, s.PayloadOffset, len(s.Payload))
	for _, l := range s.Decoded {
		switch l {
		case netproto.LayerEthernet:
			out += fmt.Sprintf("\n%+v", s.Eth)
		case netproto.LayerVLAN:
			out += fmt.Sprintf("\n%+v", s.VLAN)
		case netproto.LayerIPv4:
			out += fmt.Sprintf("\n%+v", s.IP4)
		case netproto.LayerTCP:
			out += fmt.Sprintf("\n%+v", s.TCP)
		case netproto.LayerUDP:
			out += fmt.Sprintf("\n%+v", s.UDP)
		case netproto.LayerICMP:
			out += fmt.Sprintf("\n%+v", s.ICMP)
		case netproto.LayerPayload:
			out += fmt.Sprintf("\n%x", s.Payload)
		}
	}
	return out
}

// framesParse is parsedHeaders of a fresh parse of frame.
func framesParse(frame []byte) string {
	var s netproto.Stack
	_ = s.Decode(frame)
	return parsedHeaders(&s)
}
