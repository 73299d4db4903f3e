package netproto

import (
	"encoding/binary"
)

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// EthernetLen is the Ethernet II header size.
const EthernetLen = 14

// DecodeFrom parses the header and returns the bytes consumed.
func (e *Ethernet) DecodeFrom(data []byte) (int, error) {
	if len(data) < EthernetLen {
		return 0, ErrTooShort
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return EthernetLen, nil
}

// SerializeTo implements SerializableLayer.
func (e *Ethernet) SerializeTo(b *SerializeBuffer) error {
	h := b.PrependBytes(EthernetLen)
	copy(h[0:6], e.Dst[:])
	copy(h[6:12], e.Src[:])
	binary.BigEndian.PutUint16(h[12:14], e.EtherType)
	return nil
}

// Dot1Q is an IEEE 802.1Q VLAN tag.
type Dot1Q struct {
	PCP       uint8  // priority code point (3 bits)
	DEI       bool   // drop eligible indicator
	VID       uint16 // VLAN identifier (12 bits)
	EtherType uint16 // encapsulated EtherType
}

// Dot1QLen is the VLAN tag size (after the outer EtherType).
const Dot1QLen = 4

// DecodeFrom parses the tag and returns bytes consumed.
func (v *Dot1Q) DecodeFrom(data []byte) (int, error) {
	if len(data) < Dot1QLen {
		return 0, ErrTooShort
	}
	tci := binary.BigEndian.Uint16(data[0:2])
	v.PCP = uint8(tci >> 13)
	v.DEI = tci&0x1000 != 0
	v.VID = tci & 0x0fff
	v.EtherType = binary.BigEndian.Uint16(data[2:4])
	return Dot1QLen, nil
}

// SerializeTo implements SerializableLayer.
func (v *Dot1Q) SerializeTo(b *SerializeBuffer) error {
	h := b.PrependBytes(Dot1QLen)
	tci := uint16(v.PCP&0x7)<<13 | v.VID&0x0fff
	if v.DEI {
		tci |= 0x1000
	}
	binary.BigEndian.PutUint16(h[0:2], tci)
	binary.BigEndian.PutUint16(h[2:4], v.EtherType)
	return nil
}

// IPv4 is an IPv4 header. Options are not modelled: IHL is always 5 on
// serialize; decode accepts and skips options.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      IPv4Addr
	Dst      IPv4Addr

	hdrLen int // set by DecodeFrom
}

// IPv4MinLen is the option-less IPv4 header size.
const IPv4MinLen = 20

// DecodeFrom parses the header (skipping options) and returns bytes consumed.
func (ip *IPv4) DecodeFrom(data []byte) (int, error) {
	if len(data) < IPv4MinLen {
		return 0, ErrTooShort
	}
	if data[0]>>4 != 4 {
		return 0, ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4MinLen || len(data) < ihl {
		return 0, ErrBadHdrLen
	}
	ip.TOS = data[1]
	ip.TotalLen = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src = IPv4Addr(binary.BigEndian.Uint32(data[12:16]))
	ip.Dst = IPv4Addr(binary.BigEndian.Uint32(data[16:20]))
	ip.hdrLen = ihl
	return ihl, nil
}

// PayloadLen returns the L4 length implied by TotalLen, clamped to zero.
func (ip *IPv4) PayloadLen() int {
	n := int(ip.TotalLen) - ip.hdrLen
	if ip.hdrLen == 0 {
		n = int(ip.TotalLen) - IPv4MinLen
	}
	if n < 0 {
		return 0
	}
	return n
}

// SerializeTo implements SerializableLayer. TotalLen and Checksum are
// computed; caller-set values are ignored.
func (ip *IPv4) SerializeTo(b *SerializeBuffer) error {
	payloadLen := len(b.Bytes())
	h := b.PrependBytes(IPv4MinLen)
	h[0] = 0x45
	h[1] = ip.TOS
	total := IPv4MinLen + payloadLen
	binary.BigEndian.PutUint16(h[2:4], uint16(total))
	binary.BigEndian.PutUint16(h[4:6], ip.ID)
	binary.BigEndian.PutUint16(h[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	h[8] = ip.TTL
	h[9] = ip.Protocol
	h[10], h[11] = 0, 0
	binary.BigEndian.PutUint32(h[12:16], uint32(ip.Src))
	binary.BigEndian.PutUint32(h[16:20], uint32(ip.Dst))
	binary.BigEndian.PutUint16(h[10:12], FoldChecksum(Checksum(0, h)))
	ip.TotalLen = uint16(total)
	ip.Checksum = binary.BigEndian.Uint16(h[10:12])
	ip.hdrLen = IPv4MinLen
	return nil
}

// VerifyChecksum recomputes the header checksum over raw header bytes.
//
//htlint:ignore deadexport the reference the checksum-update tests compare against
func (ip *IPv4) VerifyChecksum(hdr []byte) bool {
	if len(hdr) < IPv4MinLen {
		return false
	}
	return FoldChecksum(Checksum(0, hdr[:IPv4MinLen])) == 0
}

// IPv6 extension-header protocol numbers the decoder walks, plus the
// "no next header" terminator.
const (
	IPProtoHopByHop     uint8 = 0
	IPProtoIPv6Routing  uint8 = 43
	IPProtoIPv6Fragment uint8 = 44
	//htlint:ignore deadexport RFC 8200's terminator, which the decoder's fuzz seeds name
	IPProtoIPv6NoNext   uint8 = 59
	IPProtoIPv6DestOpts uint8 = 60
)

// IsIPv6Ext reports whether proto is an extension header the decoder can
// walk (hop-by-hop, routing, fragment, destination options). ESP/AH are not
// modelled: they terminate the walk like any other unknown protocol.
func IsIPv6Ext(proto uint8) bool {
	switch proto {
	case IPProtoHopByHop, IPProtoIPv6Routing, IPProtoIPv6Fragment, IPProtoIPv6DestOpts:
		return true
	}
	return false
}

// MaxIPv6ExtHeaders bounds the extension-chain walk. Real stacks see at most
// one of each kind (RFC 8200 §4.1); eight tolerates repeats without letting
// a crafted frame turn the decoder into a long loop.
const MaxIPv6ExtHeaders = 8

// IPv6ExtChain summarises a walked IPv6 extension-header chain. The chain's
// bytes stay in the frame (nothing is copied); the summary carries what the
// pipeline needs: where the chain ends, which upper-layer protocol follows,
// and fragmentation state.
type IPv6ExtChain struct {
	Count int   // extension headers walked
	Len   int   // total chain length in bytes
	Final uint8 // protocol number following the chain

	// Fragment header state (valid when Fragmented).
	Fragmented bool
	FragOffset uint16 // in 8-byte units; non-zero means no L4 header follows
	FragMore   bool
	FragID     uint32
}

// DecodeFrom walks an extension chain whose first header has protocol number
// first, returning the bytes consumed. It fails with ErrTooShort when a
// header's declared length runs past the buffer (lying HdrExtLen) and with
// ErrUnsupported when the chain exceeds MaxIPv6ExtHeaders.
func (c *IPv6ExtChain) DecodeFrom(first uint8, data []byte) (int, error) {
	*c = IPv6ExtChain{}
	next := first
	n := 0
	for IsIPv6Ext(next) {
		if c.Count >= MaxIPv6ExtHeaders {
			return n, ErrUnsupported
		}
		rest := data[n:]
		if next == IPProtoIPv6Fragment {
			// Fixed 8 bytes: next, reserved, offset/flags, identification.
			if len(rest) < 8 {
				return n, ErrTooShort
			}
			c.Fragmented = true
			c.FragOffset = binary.BigEndian.Uint16(rest[2:4]) >> 3
			c.FragMore = rest[3]&1 != 0
			c.FragID = binary.BigEndian.Uint32(rest[4:8])
			next = rest[0]
			n += 8
		} else {
			// Hop-by-hop, routing, destination options: next, HdrExtLen in
			// 8-byte units not counting the first 8 bytes.
			if len(rest) < 2 {
				return n, ErrTooShort
			}
			l := (int(rest[1]) + 1) * 8
			if len(rest) < l {
				return n, ErrTooShort
			}
			next = rest[0]
			n += l
		}
		c.Count++
	}
	c.Final = next
	c.Len = n
	return n, nil
}

// IPv6 is a fixed IPv6 header (no extension headers).
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	PayloadLen   uint16
	NextHeader   uint8
	HopLimit     uint8
	Src          [16]byte
	Dst          [16]byte
}

// IPv6Len is the fixed IPv6 header size.
const IPv6Len = 40

// DecodeFrom parses the fixed header and returns bytes consumed.
func (ip *IPv6) DecodeFrom(data []byte) (int, error) {
	if len(data) < IPv6Len {
		return 0, ErrTooShort
	}
	if data[0]>>4 != 6 {
		return 0, ErrBadVersion
	}
	v := binary.BigEndian.Uint32(data[0:4])
	ip.TrafficClass = uint8(v >> 20)
	ip.FlowLabel = v & 0xfffff
	ip.PayloadLen = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	copy(ip.Src[:], data[8:24])
	copy(ip.Dst[:], data[24:40])
	return IPv6Len, nil
}

// SerializeTo implements SerializableLayer; PayloadLen is computed.
func (ip *IPv6) SerializeTo(b *SerializeBuffer) error {
	payloadLen := len(b.Bytes())
	h := b.PrependBytes(IPv6Len)
	binary.BigEndian.PutUint32(h[0:4], 6<<28|uint32(ip.TrafficClass)<<20|ip.FlowLabel&0xfffff)
	binary.BigEndian.PutUint16(h[4:6], uint16(payloadLen))
	h[6] = ip.NextHeader
	h[7] = ip.HopLimit
	copy(h[8:24], ip.Src[:])
	copy(h[24:40], ip.Dst[:])
	ip.PayloadLen = uint16(payloadLen)
	return nil
}

// TCP is a TCP header without options (DataOffset fixed at 5 on serialize;
// decode accepts options and skips them).
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16

	// PseudoSrc/PseudoDst feed the checksum pseudo-header on serialize;
	// set them from the enclosing IPv4 layer before serializing.
	PseudoSrc IPv4Addr
	PseudoDst IPv4Addr

	hdrLen int
}

// TCPMinLen is the option-less TCP header size.
const TCPMinLen = 20

// DecodeFrom parses the header (skipping options) and returns bytes consumed.
func (t *TCP) DecodeFrom(data []byte) (int, error) {
	if len(data) < TCPMinLen {
		return 0, ErrTooShort
	}
	off := int(data[12]>>4) * 4
	if off < TCPMinLen || len(data) < off {
		return 0, ErrBadHdrLen
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.hdrLen = off
	return off, nil
}

// SerializeTo implements SerializableLayer; Checksum is computed using the
// pseudo-header fields.
func (t *TCP) SerializeTo(b *SerializeBuffer) error {
	payloadLen := len(b.Bytes())
	h := b.PrependBytes(TCPMinLen)
	binary.BigEndian.PutUint16(h[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(h[2:4], t.DstPort)
	binary.BigEndian.PutUint32(h[4:8], t.Seq)
	binary.BigEndian.PutUint32(h[8:12], t.Ack)
	h[12] = 5 << 4
	h[13] = t.Flags & 0x3f
	binary.BigEndian.PutUint16(h[14:16], t.Window)
	h[16], h[17] = 0, 0
	binary.BigEndian.PutUint16(h[18:20], t.Urgent)
	seg := b.Bytes() // header + payload
	sum := PseudoHeaderSum(uint32(t.PseudoSrc), uint32(t.PseudoDst), IPProtoTCP, TCPMinLen+payloadLen)
	binary.BigEndian.PutUint16(h[16:18], FoldChecksum(Checksum(sum, seg[:TCPMinLen+payloadLen])))
	t.Checksum = binary.BigEndian.Uint16(h[16:18])
	t.hdrLen = TCPMinLen
	return nil
}

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16

	PseudoSrc IPv4Addr
	PseudoDst IPv4Addr
}

// UDPLen is the UDP header size.
const UDPLen = 8

// DecodeFrom parses the header and returns bytes consumed.
func (u *UDP) DecodeFrom(data []byte) (int, error) {
	if len(data) < UDPLen {
		return 0, ErrTooShort
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	return UDPLen, nil
}

// SerializeTo implements SerializableLayer; Length and Checksum are computed.
func (u *UDP) SerializeTo(b *SerializeBuffer) error {
	payloadLen := len(b.Bytes())
	h := b.PrependBytes(UDPLen)
	binary.BigEndian.PutUint16(h[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(h[2:4], u.DstPort)
	length := UDPLen + payloadLen
	binary.BigEndian.PutUint16(h[4:6], uint16(length))
	h[6], h[7] = 0, 0
	seg := b.Bytes()
	sum := PseudoHeaderSum(uint32(u.PseudoSrc), uint32(u.PseudoDst), IPProtoUDP, length)
	cs := FoldChecksum(Checksum(sum, seg[:length]))
	if cs == 0 {
		cs = 0xffff // RFC 768: transmitted zero checksum means "none"
	}
	binary.BigEndian.PutUint16(h[6:8], cs)
	u.Length = uint16(length)
	u.Checksum = cs
	return nil
}

// ICMP is an ICMPv4 header (echo-style: ident/seq in RestOfHeader).
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	Ident    uint16
	Seq      uint16
}

// ICMPLen is the echo-style ICMP header size.
const ICMPLen = 8

// DecodeFrom parses the header and returns bytes consumed.
func (ic *ICMP) DecodeFrom(data []byte) (int, error) {
	if len(data) < ICMPLen {
		return 0, ErrTooShort
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.Ident = binary.BigEndian.Uint16(data[4:6])
	ic.Seq = binary.BigEndian.Uint16(data[6:8])
	return ICMPLen, nil
}

// SerializeTo implements SerializableLayer; Checksum is computed.
func (ic *ICMP) SerializeTo(b *SerializeBuffer) error {
	h := b.PrependBytes(ICMPLen)
	h[0] = ic.Type
	h[1] = ic.Code
	h[2], h[3] = 0, 0
	binary.BigEndian.PutUint16(h[4:6], ic.Ident)
	binary.BigEndian.PutUint16(h[6:8], ic.Seq)
	binary.BigEndian.PutUint16(h[2:4], FoldChecksum(Checksum(0, b.Bytes())))
	ic.Checksum = binary.BigEndian.Uint16(h[2:4])
	return nil
}

// ARP is an Ethernet/IPv4 ARP message.
type ARP struct {
	Op        uint16 // 1 request, 2 reply
	SenderMAC MAC
	SenderIP  IPv4Addr
	TargetMAC MAC
	TargetIP  IPv4Addr
}

// ARPLen is the Ethernet/IPv4 ARP message size.
const ARPLen = 28

// DecodeFrom parses the message and returns bytes consumed.
func (a *ARP) DecodeFrom(data []byte) (int, error) {
	if len(data) < ARPLen {
		return 0, ErrTooShort
	}
	if binary.BigEndian.Uint16(data[0:2]) != 1 || binary.BigEndian.Uint16(data[2:4]) != EtherTypeIPv4 {
		return 0, ErrUnsupported
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	a.SenderIP = IPv4Addr(binary.BigEndian.Uint32(data[14:18]))
	copy(a.TargetMAC[:], data[18:24])
	a.TargetIP = IPv4Addr(binary.BigEndian.Uint32(data[24:28]))
	return ARPLen, nil
}

// SerializeTo implements SerializableLayer.
func (a *ARP) SerializeTo(b *SerializeBuffer) error {
	h := b.PrependBytes(ARPLen)
	binary.BigEndian.PutUint16(h[0:2], 1)
	binary.BigEndian.PutUint16(h[2:4], EtherTypeIPv4)
	h[4], h[5] = 6, 4
	binary.BigEndian.PutUint16(h[6:8], a.Op)
	copy(h[8:14], a.SenderMAC[:])
	binary.BigEndian.PutUint32(h[14:18], uint32(a.SenderIP))
	copy(h[18:24], a.TargetMAC[:])
	binary.BigEndian.PutUint32(h[24:28], uint32(a.TargetIP))
	return nil
}
