package netproto

import (
	"bytes"
	"testing"
)

func TestStackDecodeUDP(t *testing.T) {
	raw, err := BuildUDP(UDPSpec{
		SrcMAC: MACFromUint64(1), DstMAC: MACFromUint64(2),
		SrcIP: MustIPv4("10.0.0.1"), DstIP: MustIPv4("10.0.0.2"),
		SrcPort: 5000, DstPort: 53, Payload: []byte("hello"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []LayerType{LayerEthernet, LayerIPv4, LayerUDP, LayerPayload} {
		if !s.Has(want) {
			t.Fatalf("missing layer %v; decoded %v", want, s.Decoded)
		}
	}
	if s.UDP.SrcPort != 5000 || s.UDP.DstPort != 53 {
		t.Fatalf("udp ports: %+v", s.UDP)
	}
	if !bytes.Equal(s.Payload, []byte("hello")) {
		t.Fatalf("payload = %q", s.Payload)
	}
	if s.PayloadOffset != EthernetLen+IPv4MinLen+UDPLen {
		t.Fatalf("payload offset = %d", s.PayloadOffset)
	}
}

func TestStackDecodeTCPNoPayload(t *testing.T) {
	raw, err := BuildTCP(TCPSpec{
		SrcIP: MustIPv4("1.1.0.1"), DstIP: MustIPv4("9.9.9.9"),
		SrcPort: 1024, DstPort: 80, Flags: TCPSyn, Seq: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if !s.Has(LayerTCP) || s.Has(LayerPayload) {
		t.Fatalf("decoded = %v", s.Decoded)
	}
	if s.TCP.Flags != TCPSyn || s.TCP.Seq != 1 {
		t.Fatalf("tcp: %+v", s.TCP)
	}
}

func TestStackDecodePaddingNotPayload(t *testing.T) {
	// A 64-byte SYN frame carries Ethernet padding beyond IPv4 TotalLen;
	// the decoder must not report it as TCP payload.
	raw, err := BuildTCP(TCPSpec{
		SrcIP: MustIPv4("1.1.0.1"), DstIP: MustIPv4("9.9.9.9"),
		SrcPort: 1024, DstPort: 80, Flags: TCPSyn, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 64 {
		t.Fatalf("frame len = %d", len(raw))
	}
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	// FrameLen padding is *inside* the IP datagram in our builder (payload
	// pad), so it does appear as payload; craft explicit outer padding
	// instead: rebuild a 54-byte segment then append trailer bytes.
	raw2, _ := BuildTCP(TCPSpec{
		SrcIP: MustIPv4("1.1.0.1"), DstIP: MustIPv4("9.9.9.9"),
		SrcPort: 1024, DstPort: 80, Flags: TCPSyn,
	})
	raw2 = append(raw2, make([]byte, 10)...) // Ethernet trailer padding
	var s2 Stack
	if err := s2.Decode(raw2); err != nil {
		t.Fatal(err)
	}
	if s2.Has(LayerPayload) {
		t.Fatalf("trailer padding decoded as payload (len %d)", len(s2.Payload))
	}
}

func TestStackDecodeARP(t *testing.T) {
	raw, err := Serialize(
		&Ethernet{EtherType: EtherTypeARP},
		&ARP{Op: 1, SenderIP: MustIPv4("10.0.0.1"), TargetIP: MustIPv4("10.0.0.2")},
	)
	if err != nil {
		t.Fatal(err)
	}
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if !s.Has(LayerARP) || s.ARP.Op != 1 {
		t.Fatalf("arp decode: %v %+v", s.Decoded, s.ARP)
	}
}

func TestStackDecodeICMP(t *testing.T) {
	raw, err := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoICMP, Src: 1, Dst: 2},
		&ICMP{Type: 8, Ident: 1, Seq: 1},
		Payload([]byte("x")),
	)
	if err != nil {
		t.Fatal(err)
	}
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if !s.Has(LayerICMP) || s.ICMP.Type != 8 {
		t.Fatalf("icmp decode: %v", s.Decoded)
	}
}

func TestStackDecodeIPv6UDP(t *testing.T) {
	ip6 := &IPv6{NextHeader: IPProtoUDP, HopLimit: 64}
	raw, err := Serialize(
		&Ethernet{EtherType: EtherTypeIPv6},
		ip6,
		&UDP{SrcPort: 1, DstPort: 2},
		Payload([]byte("v6")),
	)
	if err != nil {
		t.Fatal(err)
	}
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if !s.Has(LayerIPv6) || !s.Has(LayerUDP) || !bytes.Equal(s.Payload, []byte("v6")) {
		t.Fatalf("ipv6 decode: %v payload=%q", s.Decoded, s.Payload)
	}
}

func TestStackDecodeUnknownEtherType(t *testing.T) {
	raw, err := Serialize(&Ethernet{EtherType: 0x88cc}, Payload([]byte("lldp-ish")))
	if err != nil {
		t.Fatal(err)
	}
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if !s.Has(LayerPayload) || s.Has(LayerIPv4) {
		t.Fatalf("decoded = %v", s.Decoded)
	}
}

func TestStackDecodeTruncated(t *testing.T) {
	raw, _ := BuildUDP(UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4})
	var s Stack
	if err := s.Decode(raw[:EthernetLen+10]); err == nil {
		t.Fatal("truncated IPv4 decoded without error")
	}
	if !s.Has(LayerEthernet) {
		t.Fatal("outer layer should still be decoded")
	}
}

func TestStackReuseNoStaleLayers(t *testing.T) {
	var s Stack
	udp, _ := BuildUDP(UDPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Payload: []byte("a")})
	if err := s.Decode(udp); err != nil {
		t.Fatal(err)
	}
	tcp, _ := BuildTCP(TCPSpec{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Flags: TCPAck})
	if err := s.Decode(tcp); err != nil {
		t.Fatal(err)
	}
	if s.Has(LayerUDP) || s.Has(LayerPayload) {
		t.Fatalf("stale layers after reuse: %v", s.Decoded)
	}
	if !s.Has(LayerTCP) {
		t.Fatal("tcp missing on reuse")
	}
}

func TestFlowKeyBytesCanonical(t *testing.T) {
	k := FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, Proto: 6, SrcPort: 0x0a0b, DstPort: 0x0c0d}
	b := k.Bytes()
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0x0a, 0x0b, 0x0c, 0x0d, 6}
	if !bytes.Equal(b[:], want) {
		t.Fatalf("Bytes() = %v, want %v", b, want)
	}
}

func TestFlowFromStackNonIP(t *testing.T) {
	raw, _ := Serialize(&Ethernet{EtherType: EtherTypeARP}, &ARP{Op: 1})
	var s Stack
	if err := s.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := FlowFromStack(&s); ok {
		t.Fatal("FlowFromStack returned ok for ARP")
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	// Force several growth cycles with large prepends.
	copy(b.PrependBytes(3000), bytes.Repeat([]byte{0xaa}, 3000))
	copy(b.PrependBytes(5000), bytes.Repeat([]byte{0xbb}, 5000))
	copy(b.PrependBytes(100), bytes.Repeat([]byte{0xcc}, 100))
	out := b.Bytes()
	if len(out) != 8100 {
		t.Fatalf("len = %d, want 8100", len(out))
	}
	if out[0] != 0xcc || out[100] != 0xbb || out[5100] != 0xaa {
		t.Fatal("content misplaced after growth")
	}
	b.Clear()
	if len(b.Bytes()) != 0 {
		t.Fatal("Clear left bytes behind")
	}
}
