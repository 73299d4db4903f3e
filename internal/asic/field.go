package asic

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netproto"
)

// Field identifies a header or intrinsic-metadata field a match-action
// pipeline can read or write. Pipelines address fields through this enum —
// the simulation equivalent of a PHV container allocation — rather than by
// string, so the hot path never hashes names.
type Field uint8

// Header and metadata fields available to pipelines.
const (
	FieldNone Field = iota

	FieldEthSrc
	FieldEthDst
	FieldEthType

	FieldVlanID
	FieldVlanPCP

	FieldIPv4Src
	FieldIPv4Dst
	FieldIPv4TTL
	FieldIPv4Proto
	FieldIPv4TOS
	FieldIPv4ID

	FieldTCPSrcPort
	FieldTCPDstPort
	FieldTCPSeq
	FieldTCPAck
	FieldTCPFlags
	FieldTCPWindow

	FieldUDPSrcPort
	FieldUDPDstPort

	FieldICMPType
	FieldICMPIdent
	FieldICMPSeq

	// FieldL4SrcPort/FieldL4DstPort read whichever transport layer was
	// parsed (TCP or UDP), the way a P4 program unions the two headers
	// for 5-tuple keying.
	FieldL4SrcPort
	FieldL4DstPort

	// Intrinsic metadata (read-only except where noted).
	FieldInPort     // ingress port
	FieldPktLen     // frame length in bytes
	FieldIngressTs  // MAC ingress timestamp, ns
	FieldTemplateID // HyperTester template ID carried in metadata

	numFields
)

var fieldInfo = [numFields]struct {
	name  string
	width int // bits
	// layer is the header the field lives in; Set writes it only when the
	// parser extracted that header. Zero for metadata and the l4 union.
	layer netproto.LayerType
}{
	FieldNone:       {"none", 0, netproto.LayerNone},
	FieldEthSrc:     {"eth.src", 48, netproto.LayerEthernet},
	FieldEthDst:     {"eth.dst", 48, netproto.LayerEthernet},
	FieldEthType:    {"eth.type", 16, netproto.LayerEthernet},
	FieldVlanID:     {"vlan.id", 12, netproto.LayerVLAN},
	FieldVlanPCP:    {"vlan.pcp", 3, netproto.LayerVLAN},
	FieldIPv4Src:    {"ipv4.sip", 32, netproto.LayerIPv4},
	FieldIPv4Dst:    {"ipv4.dip", 32, netproto.LayerIPv4},
	FieldIPv4TTL:    {"ipv4.ttl", 8, netproto.LayerIPv4},
	FieldIPv4Proto:  {"ipv4.proto", 8, netproto.LayerIPv4},
	FieldIPv4TOS:    {"ipv4.tos", 8, netproto.LayerIPv4},
	FieldIPv4ID:     {"ipv4.id", 16, netproto.LayerIPv4},
	FieldTCPSrcPort: {"tcp.sport", 16, netproto.LayerTCP},
	FieldTCPDstPort: {"tcp.dport", 16, netproto.LayerTCP},
	FieldTCPSeq:     {"tcp.seq_no", 32, netproto.LayerTCP},
	FieldTCPAck:     {"tcp.ack_no", 32, netproto.LayerTCP},
	FieldTCPFlags:   {"tcp.flag", 8, netproto.LayerTCP},
	FieldTCPWindow:  {"tcp.window", 16, netproto.LayerTCP},
	FieldUDPSrcPort: {"udp.sport", 16, netproto.LayerUDP},
	FieldUDPDstPort: {"udp.dport", 16, netproto.LayerUDP},
	FieldL4SrcPort:  {"l4.sport", 16, netproto.LayerNone},
	FieldL4DstPort:  {"l4.dport", 16, netproto.LayerNone},
	FieldICMPType:   {"icmp.type", 8, netproto.LayerICMP},
	FieldICMPIdent:  {"icmp.ident", 16, netproto.LayerICMP},
	FieldICMPSeq:    {"icmp.seq", 16, netproto.LayerICMP},
	FieldInPort:     {"meta.in_port", 9, netproto.LayerNone},
	FieldPktLen:     {"pkt_len", 16, netproto.LayerNone},
	FieldIngressTs:  {"meta.ingress_ts", 64, netproto.LayerNone},
	FieldTemplateID: {"meta.template_id", 16, netproto.LayerNone},
}

// Name returns the NTAPI-style dotted name of the field.
func (f Field) Name() string { return fieldInfo[f].name }

// Width returns the field width in bits.
func (f Field) Width() int { return fieldInfo[f].width }

// MaxValue returns the largest value the field can hold.
func (f Field) MaxValue() uint64 {
	w := fieldInfo[f].width
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

func (f Field) String() string { return f.Name() }

// FieldByName resolves an NTAPI-style dotted field name. It accepts the
// aliases used in the paper's listings (dip/sip/dport/sport without a header
// prefix resolve against IPv4/TCP-or-UDP as NTAPI does).
func FieldByName(name string) (Field, error) {
	for f := Field(1); f < numFields; f++ {
		if fieldInfo[f].name == name {
			return f, nil
		}
	}
	switch name {
	case "sip":
		return FieldIPv4Src, nil
	case "dip":
		return FieldIPv4Dst, nil
	case "proto":
		return FieldIPv4Proto, nil
	case "ttl":
		return FieldIPv4TTL, nil
	case "sport":
		return FieldL4SrcPort, nil
	case "dport":
		return FieldL4DstPort, nil
	case "flag", "tcp_flag", "tcp.tcp_flag":
		return FieldTCPFlags, nil
	case "seq_no":
		return FieldTCPSeq, nil
	case "ack_no":
		return FieldTCPAck, nil
	}
	return FieldNone, fmt.Errorf("asic: unknown field %q", name)
}

// Get reads the field from a PHV. Reading a field whose layer was not parsed
// returns zero, matching P4's invalid-header read semantics on Tofino.
func (f Field) Get(p *PHV) uint64 {
	s := &p.Stack
	switch f {
	case FieldEthSrc:
		return macToUint64(s.Eth.Src)
	case FieldEthDst:
		return macToUint64(s.Eth.Dst)
	case FieldEthType:
		return uint64(s.Eth.EtherType)
	case FieldVlanID:
		return uint64(s.VLAN.VID)
	case FieldVlanPCP:
		return uint64(s.VLAN.PCP)
	case FieldIPv4Src:
		return uint64(s.IP4.Src)
	case FieldIPv4Dst:
		return uint64(s.IP4.Dst)
	case FieldIPv4TTL:
		return uint64(s.IP4.TTL)
	case FieldIPv4Proto:
		return uint64(s.IP4.Protocol)
	case FieldIPv4TOS:
		return uint64(s.IP4.TOS)
	case FieldIPv4ID:
		return uint64(s.IP4.ID)
	case FieldTCPSrcPort:
		return uint64(s.TCP.SrcPort)
	case FieldTCPDstPort:
		return uint64(s.TCP.DstPort)
	case FieldTCPSeq:
		return uint64(s.TCP.Seq)
	case FieldTCPAck:
		return uint64(s.TCP.Ack)
	case FieldTCPFlags:
		return uint64(s.TCP.Flags)
	case FieldTCPWindow:
		return uint64(s.TCP.Window)
	case FieldUDPSrcPort:
		return uint64(s.UDP.SrcPort)
	case FieldUDPDstPort:
		return uint64(s.UDP.DstPort)
	case FieldL4SrcPort:
		if s.Has(netproto.LayerTCP) {
			return uint64(s.TCP.SrcPort)
		}
		return uint64(s.UDP.SrcPort)
	case FieldL4DstPort:
		if s.Has(netproto.LayerTCP) {
			return uint64(s.TCP.DstPort)
		}
		return uint64(s.UDP.DstPort)
	case FieldICMPType:
		return uint64(s.ICMP.Type)
	case FieldICMPIdent:
		return uint64(s.ICMP.Ident)
	case FieldICMPSeq:
		return uint64(s.ICMP.Seq)
	case FieldInPort:
		return uint64(p.Meta.InPort)
	case FieldPktLen:
		return uint64(p.FrameLen)
	case FieldIngressTs:
		return uint64(p.Meta.IngressPs)
	case FieldTemplateID:
		return uint64(p.Meta.TemplateID)
	}
	return 0
}

// Set writes the field into a PHV. Writes to read-only intrinsic metadata
// and to headers the parser did not extract are silently dropped, as on
// hardware: an invalid header is not emitted, so nothing written to it could
// reach the wire. FieldL4SrcPort/FieldL4DstPort write whichever of TCP or UDP
// was parsed, and nothing when neither was.
func (f Field) Set(p *PHV, v uint64) {
	s := &p.Stack
	p.Dirty = true
	if l := fieldInfo[f].layer; l != netproto.LayerNone && !s.Has(l) {
		return
	}
	switch f {
	case FieldEthSrc:
		s.Eth.Src = uint64ToMAC(v)
	case FieldEthDst:
		s.Eth.Dst = uint64ToMAC(v)
	case FieldEthType:
		s.Eth.EtherType = uint16(v)
	case FieldVlanID:
		s.VLAN.VID = uint16(v) & 0x0fff
	case FieldVlanPCP:
		s.VLAN.PCP = uint8(v) & 0x7
	case FieldIPv4Src:
		s.IP4.Src = netproto.IPv4Addr(v)
	case FieldIPv4Dst:
		s.IP4.Dst = netproto.IPv4Addr(v)
	case FieldIPv4TTL:
		s.IP4.TTL = uint8(v)
	case FieldIPv4Proto:
		s.IP4.Protocol = uint8(v)
	case FieldIPv4TOS:
		s.IP4.TOS = uint8(v)
	case FieldIPv4ID:
		s.IP4.ID = uint16(v)
	case FieldTCPSrcPort:
		s.TCP.SrcPort = uint16(v)
	case FieldTCPDstPort:
		s.TCP.DstPort = uint16(v)
	case FieldTCPSeq:
		s.TCP.Seq = uint32(v)
	case FieldTCPAck:
		s.TCP.Ack = uint32(v)
	case FieldTCPFlags:
		s.TCP.Flags = uint8(v) & 0x3f
	case FieldTCPWindow:
		s.TCP.Window = uint16(v)
	case FieldUDPSrcPort:
		s.UDP.SrcPort = uint16(v)
	case FieldUDPDstPort:
		s.UDP.DstPort = uint16(v)
	case FieldL4SrcPort:
		switch {
		case s.Has(netproto.LayerTCP):
			s.TCP.SrcPort = uint16(v)
		case s.Has(netproto.LayerUDP):
			s.UDP.SrcPort = uint16(v)
		}
	case FieldL4DstPort:
		switch {
		case s.Has(netproto.LayerTCP):
			s.TCP.DstPort = uint16(v)
		case s.Has(netproto.LayerUDP):
			s.UDP.DstPort = uint16(v)
		}
	case FieldICMPType:
		s.ICMP.Type = uint8(v)
	case FieldICMPIdent:
		s.ICMP.Ident = uint16(v)
	case FieldICMPSeq:
		s.ICMP.Seq = uint16(v)
	}
}

func macToUint64(m netproto.MAC) uint64 {
	var v uint64
	for _, b := range m {
		v = v<<8 | uint64(b)
	}
	return v
}

func uint64ToMAC(v uint64) netproto.MAC { return netproto.MACFromUint64(v) }
