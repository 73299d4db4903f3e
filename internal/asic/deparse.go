package asic

import (
	"encoding/binary"

	"github.com/hypertester/hypertester/internal/netproto"
)

// In-place header writers used by the deparser. They overwrite header bytes
// in the original frame (lengths are invariant) and recompute checksums the
// way the egress deparser's checksum units do.

func writeEthernet(b []byte, e *netproto.Ethernet) {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], e.EtherType)
}

func writeDot1Q(b []byte, v *netproto.Dot1Q) {
	tci := uint16(v.PCP&0x7)<<13 | v.VID&0x0fff
	if v.DEI {
		tci |= 0x1000
	}
	binary.BigEndian.PutUint16(b[0:2], tci)
	binary.BigEndian.PutUint16(b[2:4], v.EtherType)
}

func writeIPv4(b []byte, ip *netproto.IPv4) {
	// Preserve version/IHL and TotalLen already present on the wire;
	// the pipeline cannot resize packets.
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	binary.BigEndian.PutUint32(b[12:16], uint32(ip.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(ip.Dst))
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint16(b[10:12], netproto.FoldChecksum(netproto.Checksum(0, b[:netproto.IPv4MinLen])))
}

func writeTCP(b []byte, t *netproto.TCP, ip *netproto.IPv4, segLen int) {
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[13] = t.Flags & 0x3f
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	if segLen < netproto.TCPMinLen || segLen > len(b) {
		segLen = len(b)
	}
	b[16], b[17] = 0, 0
	sum := netproto.PseudoHeaderSum(uint32(ip.Src), uint32(ip.Dst), netproto.IPProtoTCP, segLen)
	binary.BigEndian.PutUint16(b[16:18], netproto.FoldChecksum(netproto.Checksum(sum, b[:segLen])))
}

func writeUDP(b []byte, u *netproto.UDP, ip *netproto.IPv4) {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	segLen := int(binary.BigEndian.Uint16(b[4:6]))
	if segLen < netproto.UDPLen || segLen > len(b) {
		segLen = len(b)
	}
	b[6], b[7] = 0, 0
	sum := netproto.PseudoHeaderSum(uint32(ip.Src), uint32(ip.Dst), netproto.IPProtoUDP, segLen)
	cs := netproto.FoldChecksum(netproto.Checksum(sum, b[:segLen]))
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(b[6:8], cs)
}

func writeICMP(b []byte, ic *netproto.ICMP, msgLen int) {
	b[0] = ic.Type
	b[1] = ic.Code
	binary.BigEndian.PutUint16(b[4:6], ic.Ident)
	binary.BigEndian.PutUint16(b[6:8], ic.Seq)
	if msgLen < netproto.ICMPLen || msgLen > len(b) {
		msgLen = len(b)
	}
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[2:4], netproto.FoldChecksum(netproto.Checksum(0, b[:msgLen])))
}
