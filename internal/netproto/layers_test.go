package netproto

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestParseIPv4(t *testing.T) {
	cases := []struct {
		in   string
		want IPv4Addr
		ok   bool
	}{
		{"1.2.3.4", 0x01020304, true},
		{"255.255.255.255", 0xffffffff, true},
		{"0.0.0.0", 0, true},
		{"10.0.0.1", 0x0a000001, true},
		{"256.1.1.1", 0, false},
		{"1.2.3", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIPv4(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseIPv4(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseIPv4(%q) succeeded, want error", c.in)
		}
	}
}

func TestIPv4AddrString(t *testing.T) {
	if got := MustIPv4("192.168.1.200").String(); got != "192.168.1.200" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMACFromUint64(t *testing.T) {
	m := MACFromUint64(0x0000112233445566)
	want := MAC{0x11, 0x22, 0x33, 0x44, 0x55, 0x66}
	if m != want {
		t.Fatalf("MACFromUint64 = %v, want %v", m, want)
	}
	if m.String() != "11:22:33:44:55:66" {
		t.Fatalf("MAC.String() = %q", m.String())
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	in := Ethernet{Dst: MACFromUint64(1), Src: MACFromUint64(2), EtherType: EtherTypeIPv4}
	b := NewSerializeBuffer()
	if err := in.SerializeTo(b); err != nil {
		t.Fatal(err)
	}
	var out Ethernet
	n, err := out.DecodeFrom(b.Bytes())
	if err != nil || n != EthernetLen {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	in := IPv4{TOS: 7, ID: 0x1234, TTL: 63, Protocol: IPProtoUDP,
		Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")}
	b := NewSerializeBuffer()
	copy(b.PrependBytes(10), []byte("payload890")) // payload to count in TotalLen
	if err := in.SerializeTo(b); err != nil {
		t.Fatal(err)
	}
	raw := b.Bytes()
	var out IPv4
	n, err := out.DecodeFrom(raw)
	if err != nil || n != IPv4MinLen {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if out.TotalLen != 30 {
		t.Fatalf("TotalLen = %d, want 30", out.TotalLen)
	}
	if out.Src != in.Src || out.Dst != in.Dst || out.TTL != 63 || out.Protocol != IPProtoUDP {
		t.Fatalf("field mismatch: %+v", out)
	}
	if !out.VerifyChecksum(raw) {
		t.Fatal("checksum does not verify")
	}
	raw[8]-- // corrupt TTL
	if out.VerifyChecksum(raw) {
		t.Fatal("checksum verified after corruption")
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var ip IPv4
	if _, err := ip.DecodeFrom(make([]byte, 10)); err != ErrTooShort {
		t.Fatalf("short buffer: err = %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 0x60 // version 6
	if _, err := ip.DecodeFrom(bad); err != ErrBadVersion {
		t.Fatalf("bad version: err = %v", err)
	}
	bad[0] = 0x43 // version 4, IHL 3 (<5)
	if _, err := ip.DecodeFrom(bad); err != ErrBadHdrLen {
		t.Fatalf("bad IHL: err = %v", err)
	}
}

func TestTCPChecksumMatchesReference(t *testing.T) {
	// Serialize a TCP segment and verify the checksum with an independent
	// full recomputation (pseudo-header + header-with-zero-cksum + payload).
	src, dst := MustIPv4("1.1.1.1"), MustIPv4("2.2.2.2")
	tc := &TCP{SrcPort: 4096, DstPort: 80, Seq: 100, Ack: 7, Flags: TCPSyn | TCPAck,
		Window: 1024, PseudoSrc: src, PseudoDst: dst}
	payload := []byte("GET index.html")
	raw, err := Serialize(tc, Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, len(raw))
	copy(seg, raw)
	seg[16], seg[17] = 0, 0
	sum := PseudoHeaderSum(uint32(src), uint32(dst), IPProtoTCP, len(seg))
	want := FoldChecksum(Checksum(sum, seg))
	got := binary.BigEndian.Uint16(raw[16:18])
	if got != want {
		t.Fatalf("checksum = %#x, want %#x", got, want)
	}
	// And the standard verification property: summing over the segment
	// including the transmitted checksum folds to zero.
	if FoldChecksum(Checksum(sum, raw)) != 0 {
		t.Fatal("segment checksum does not verify")
	}
}

func TestUDPZeroChecksumAvoided(t *testing.T) {
	// Craft a payload; whatever the fold yields, serialized checksum must
	// never be zero (RFC 768 reserves zero for "no checksum").
	raw, err := BuildUDP(UDPSpec{
		SrcIP: MustIPv4("1.1.1.1"), DstIP: MustIPv4("2.2.2.2"),
		SrcPort: 1, DstPort: 1, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	off := EthernetLen + IPv4MinLen
	if binary.BigEndian.Uint16(raw[off+6:off+8]) == 0 {
		t.Fatal("UDP checksum serialized as zero")
	}
}

func TestTCPOptionsSkipped(t *testing.T) {
	// Hand-craft a TCP header with 4 bytes of options (data offset 6).
	h := make([]byte, 24+3)
	binary.BigEndian.PutUint16(h[0:2], 1000)
	binary.BigEndian.PutUint16(h[2:4], 2000)
	h[12] = 6 << 4
	h[13] = TCPAck
	copy(h[24:], "abc")
	var tc TCP
	n, err := tc.DecodeFrom(h)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Fatalf("consumed %d, want 24", n)
	}
	if tc.SrcPort != 1000 || tc.DstPort != 2000 || tc.Flags != TCPAck {
		t.Fatalf("fields: %+v", tc)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	in := ICMP{Type: 8, Code: 0, Ident: 77, Seq: 3}
	raw, err := Serialize(&in, Payload([]byte("ping")))
	if err != nil {
		t.Fatal(err)
	}
	var out ICMP
	if _, err := out.DecodeFrom(raw); err != nil {
		t.Fatal(err)
	}
	if out.Type != 8 || out.Ident != 77 || out.Seq != 3 {
		t.Fatalf("fields: %+v", out)
	}
	if FoldChecksum(Checksum(0, raw)) != 0 {
		t.Fatal("ICMP checksum does not verify")
	}
}

func TestARPRoundTrip(t *testing.T) {
	in := ARP{Op: 2, SenderMAC: MACFromUint64(5), SenderIP: MustIPv4("10.1.1.1"),
		TargetMAC: MACFromUint64(9), TargetIP: MustIPv4("10.1.1.2")}
	raw, err := Serialize(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out ARP
	if _, err := out.DecodeFrom(raw); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	in := IPv6{TrafficClass: 3, FlowLabel: 0xabcde, NextHeader: IPProtoUDP, HopLimit: 64}
	in.Src[15], in.Dst[15] = 1, 2
	b := NewSerializeBuffer()
	copy(b.PrependBytes(4), "data")
	if err := in.SerializeTo(b); err != nil {
		t.Fatal(err)
	}
	var out IPv6
	n, err := out.DecodeFrom(b.Bytes())
	if err != nil || n != IPv6Len {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if out.TrafficClass != 3 || out.FlowLabel != 0xabcde || out.PayloadLen != 4 ||
		out.NextHeader != IPProtoUDP || out.Src != in.Src || out.Dst != in.Dst {
		t.Fatalf("fields: %+v", out)
	}
}

// Property: BuildUDP always produces exactly the requested frame size (when
// above the minimum) and decodes back to the same 5-tuple.
func TestBuildUDPProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, sport, dport uint16, szRaw uint16) bool {
		size := MinUDPFrame + int(szRaw)%1400
		raw, err := BuildUDP(UDPSpec{
			SrcIP: IPv4Addr(srcIP), DstIP: IPv4Addr(dstIP),
			SrcPort: sport, DstPort: dport, FrameLen: size,
		})
		if err != nil || len(raw) != size {
			return false
		}
		var s Stack
		if err := s.Decode(raw); err != nil {
			return false
		}
		k, ok := FlowFromStack(&s)
		return ok && k.SrcIP == IPv4Addr(srcIP) && k.DstIP == IPv4Addr(dstIP) &&
			k.SrcPort == sport && k.DstPort == dport && k.Proto == IPProtoUDP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TCP round trip preserves all header fields.
func TestTCPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16) bool {
		in := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags & 0x3f, Window: win,
			PseudoSrc: 1, PseudoDst: 2}
		raw, err := Serialize(&in)
		if err != nil {
			return false
		}
		var out TCP
		if _, err := out.DecodeFrom(raw); err != nil {
			return false
		}
		return out.SrcPort == sp && out.DstPort == dp && out.Seq == seq &&
			out.Ack == ack && out.Flags == flags&0x3f && out.Window == win
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Data: []byte{1, 2, 3}, Meta: Meta{UID: 9, TemplateID: 2}}
	c := p.Clone()
	c.Data[0] = 99
	c.Meta.UID = 10
	if p.Data[0] != 1 || p.Meta.UID != 9 {
		t.Fatal("Clone shares state with original")
	}
	if !bytes.Equal(c.Data, []byte{99, 2, 3}) || c.Meta.TemplateID != 2 {
		t.Fatal("Clone did not copy contents")
	}
}

func TestWireTimeCalibration(t *testing.T) {
	// The paper's calibration point: 64-byte packets at 100 Gbps arrive
	// no faster than every 6.4 ns (§5.1).
	if got := WireTimeNs(64, 100); got != 6.4 {
		t.Fatalf("WireTimeNs(64,100) = %v, want 6.4", got)
	}
	// Sanity: a 1500-byte frame at 10 Gbps takes ~1.21 us.
	got := WireTimeNs(1500, 10)
	if got < 1200 || got > 1220 {
		t.Fatalf("WireTimeNs(1500,10) = %v, out of range", got)
	}
}
