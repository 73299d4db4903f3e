package netproto

// LayerType identifies a decoded layer in a Stack.
type LayerType uint8

// Layer types produced by Stack.Decode.
const (
	//htlint:ignore deadexport the zero LayerType
	LayerNone LayerType = iota
	LayerEthernet
	LayerVLAN
	LayerARP
	LayerIPv4
	LayerIPv6
	LayerICMP
	LayerTCP
	LayerUDP
	LayerPayload
	LayerIPv6Ext
)

func (t LayerType) String() string {
	switch t {
	case LayerEthernet:
		return "ethernet"
	case LayerVLAN:
		return "vlan"
	case LayerARP:
		return "arp"
	case LayerIPv4:
		return "ipv4"
	case LayerIPv6:
		return "ipv6"
	case LayerICMP:
		return "icmp"
	case LayerTCP:
		return "tcp"
	case LayerUDP:
		return "udp"
	case LayerPayload:
		return "payload"
	case LayerIPv6Ext:
		return "ipv6ext"
	}
	return "none"
}

// Stack is a preallocated set of decoding layers in the style of gopacket's
// DecodingLayerParser: Decode fills the embedded layer structs in place and
// records which layers were found, allocating nothing per packet. A Stack is
// owned by a single goroutine.
type Stack struct {
	Eth     Ethernet
	VLAN    Dot1Q
	ARP     ARP
	IP4     IPv4
	IP6     IPv6
	IP6Ext  IPv6ExtChain
	ICMP    ICMP
	TCP     TCP
	UDP     UDP
	Payload []byte // window into the decoded packet; not a copy

	Decoded []LayerType

	// PayloadOffset is the byte offset of Payload within the frame, or -1.
	PayloadOffset int
}

// Decode parses data starting at the Ethernet header. It stops (without
// error) at the first layer it has no decoder for; decoding errors from
// malformed inner layers are returned alongside the layers already decoded.
func (s *Stack) Decode(data []byte) error {
	s.Decoded = s.Decoded[:0]
	s.Payload = nil
	s.PayloadOffset = -1

	n, err := s.Eth.DecodeFrom(data)
	if err != nil {
		return err
	}
	s.Decoded = append(s.Decoded, LayerEthernet)
	rest := data[n:]
	off := n

	etherType := s.Eth.EtherType
	if etherType == EtherTypeVLAN {
		vn, err := s.VLAN.DecodeFrom(rest)
		if err != nil {
			return err
		}
		s.Decoded = append(s.Decoded, LayerVLAN)
		rest = rest[vn:]
		off += vn
		etherType = s.VLAN.EtherType
	}

	switch etherType {
	case EtherTypeARP:
		if _, err := s.ARP.DecodeFrom(rest); err != nil {
			return err
		}
		s.Decoded = append(s.Decoded, LayerARP)
		return nil
	case EtherTypeIPv4:
		n, err := s.IP4.DecodeFrom(rest)
		if err != nil {
			return err
		}
		s.Decoded = append(s.Decoded, LayerIPv4)
		// Honour TotalLen so Ethernet padding is not mistaken for payload.
		l4len := s.IP4.PayloadLen()
		if l4len > len(rest)-n {
			l4len = len(rest) - n
		}
		rest = rest[n : n+l4len]
		off += n
		return s.decodeL4(s.IP4.Protocol, rest, off)
	case EtherTypeIPv6:
		n, err := s.IP6.DecodeFrom(rest)
		if err != nil {
			return err
		}
		s.Decoded = append(s.Decoded, LayerIPv6)
		l4len := int(s.IP6.PayloadLen)
		if l4len > len(rest)-n {
			l4len = len(rest) - n
		}
		rest = rest[n : n+l4len]
		off += n
		next := s.IP6.NextHeader
		if IsIPv6Ext(next) {
			// Walk the extension chain (hop-by-hop, routing, fragment,
			// destination options) so the TCP/UDP segment behind it is
			// classified like any other; the chain's bytes stay in place
			// and IP6Ext carries the summary. Bounded walk, and a header
			// whose declared length runs past the buffer errors out.
			en, err := s.IP6Ext.DecodeFrom(next, rest)
			if err != nil {
				return err
			}
			s.Decoded = append(s.Decoded, LayerIPv6Ext)
			rest = rest[en:]
			off += en
			next = s.IP6Ext.Final
			if s.IP6Ext.FragOffset != 0 {
				// Non-first fragment: the bytes after the chain are a
				// mid-stream slice of the original datagram, not an L4
				// header.
				s.setPayload(rest, off)
				return nil
			}
		}
		return s.decodeL4(next, rest, off)
	}
	// Unknown EtherType: remaining bytes are opaque payload.
	s.setPayload(rest, off)
	return nil
}

func (s *Stack) decodeL4(proto uint8, rest []byte, off int) error {
	switch proto {
	case IPProtoTCP:
		n, err := s.TCP.DecodeFrom(rest)
		if err != nil {
			return err
		}
		s.Decoded = append(s.Decoded, LayerTCP)
		s.setPayload(rest[n:], off+n)
	case IPProtoUDP:
		n, err := s.UDP.DecodeFrom(rest)
		if err != nil {
			return err
		}
		s.Decoded = append(s.Decoded, LayerUDP)
		s.setPayload(rest[n:], off+n)
	case IPProtoICMP:
		n, err := s.ICMP.DecodeFrom(rest)
		if err != nil {
			return err
		}
		s.Decoded = append(s.Decoded, LayerICMP)
		s.setPayload(rest[n:], off+n)
	default:
		s.setPayload(rest, off)
	}
	return nil
}

func (s *Stack) setPayload(p []byte, off int) {
	if len(p) == 0 {
		return
	}
	s.Payload = p
	s.PayloadOffset = off
	s.Decoded = append(s.Decoded, LayerPayload)
}

// Has reports whether layer t was decoded by the last Decode call.
func (s *Stack) Has(t LayerType) bool {
	for _, d := range s.Decoded {
		if d == t {
			return true
		}
	}
	return false
}
