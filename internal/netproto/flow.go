package netproto

import (
	"encoding/binary"
	"fmt"
)

// FlowKey is the classic 5-tuple. It is a comparable value type, usable
// directly as a map key and hashable into pipeline digests.
type FlowKey struct {
	SrcIP   IPv4Addr
	DstIP   IPv4Addr
	Proto   uint8
	SrcPort uint16
	DstPort uint16
}

// FlowFromStack extracts the 5-tuple from a decoded stack. It returns false
// when the packet has no IPv4 layer.
func FlowFromStack(s *Stack) (FlowKey, bool) {
	if !s.Has(LayerIPv4) {
		return FlowKey{}, false
	}
	k := FlowKey{SrcIP: s.IP4.Src, DstIP: s.IP4.Dst, Proto: s.IP4.Protocol}
	switch {
	case s.Has(LayerTCP):
		k.SrcPort, k.DstPort = s.TCP.SrcPort, s.TCP.DstPort
	case s.Has(LayerUDP):
		k.SrcPort, k.DstPort = s.UDP.SrcPort, s.UDP.DstPort
	}
	return k, true
}

// Bytes serializes the key into a fixed 13-byte canonical form used as hash
// input by the pipeline (SrcIP, DstIP, SrcPort, DstPort, Proto, big-endian).
func (k FlowKey) Bytes() [13]byte {
	var b [13]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(k.SrcIP))
	binary.BigEndian.PutUint32(b[4:8], uint32(k.DstIP))
	binary.BigEndian.PutUint16(b[8:10], k.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], k.DstPort)
	b[12] = k.Proto
	return b
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%v:%d>%v:%d/%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
}
