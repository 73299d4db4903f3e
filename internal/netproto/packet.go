// Package netproto implements the packet model used throughout the
// reproduction: wire-format codecs for Ethernet, ARP, IPv4, IPv6, ICMP, TCP
// and UDP, a prepend-style serialization buffer, and preallocated decoding
// layers in the style of gopacket's DecodingLayerParser (decode into caller-
// owned structs, no per-packet allocation on the hot path).
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Packet is a wire packet travelling through the simulation. Data holds the
// full frame starting at the Ethernet header, excluding preamble and FCS.
type Packet struct {
	Data []byte

	// Meta carries simulation-side context that a real wire does not:
	// the ingress timestamp assigned by a MAC, the template ID for
	// HyperTester template packets, and a monotonically growing unique ID
	// for tracing. None of these fields exist on the wire.
	Meta Meta

	// buf is the pooled frame storage a NewPacket/Clone-built packet
	// carries through its pool lifetime; Data aliases it for frames up to
	// FrameBufSize bytes. Nil for packets built around caller-owned
	// storage (&Packet{Data: raw}).
	buf *[FrameBufSize]byte
}

// FrameBufSize is the pooled frame-buffer capacity. It covers standard
// 1500-byte MTU frames plus the simulation's internal headroom; jumbo frames
// fall back to exact-size heap allocation.
const FrameBufSize = 2048

// packetPool recycles Packet structs together with their frame buffers.
// Release is strictly opt-in: a packet whose owner never releases it is
// simply collected by the GC, so forgetting Release is safe (slower), while
// releasing a packet someone else still references is a bug (see the
// pooling invariants in DESIGN.md).
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket returns a pooled packet whose Data has length n. The frame bytes
// are NOT zeroed: callers are expected to overwrite the full frame (as Clone
// and the serializers do).
func NewPacket(n int) *Packet {
	p := packetPool.Get().(*Packet)
	if n <= FrameBufSize {
		if p.buf == nil {
			p.buf = new([FrameBufSize]byte)
		}
		p.Data = p.buf[:n]
	} else {
		p.Data = make([]byte, n)
	}
	return p
}

// Release returns the packet (and its pooled frame buffer) to the packet
// pool. After Release the caller must not touch the packet again: its Data
// is gone and the struct will be handed to an unrelated future NewPacket or
// Clone call. Only the packet's exclusive owner may release it — never a
// packet somebody else may still hold (a delivered frame, a retained
// capture). Releasing a caller-built &Packet{Data: raw} is allowed; the raw
// storage stays with its creator.
func (p *Packet) Release() {
	if p == nil {
		return
	}
	p.Data = nil
	p.Meta = Meta{}
	packetPool.Put(p)
}

// Meta is simulation-side packet context. It is copied, never shared, when a
// packet is replicated.
type Meta struct {
	// UID uniquely identifies the packet instance for tracing.
	UID uint64
	// TemplateID marks HyperTester template packets (0 = not a template;
	// templates use 1-based IDs).
	TemplateID int
	// IngressPs is the MAC ingress timestamp in virtual picoseconds.
	IngressPs int64
	// EgressPs is the MAC egress timestamp in virtual picoseconds.
	EgressPs int64
	// InPort is the switch port the packet arrived on.
	InPort int
	// Replica marks packets produced by the multicast engine.
	Replica bool
	// ReplicaID is the multicast replication ID (rid) of this copy.
	ReplicaID int
	// SeqID is the replication sequence number HTPS stamps at fire time
	// (the editor's per-template packet ID).
	SeqID uint64
	// Record carries a stateless-connection trigger record from HTPR to
	// the editor (PHV metadata in hardware terms).
	Record []uint64
}

// Len returns the frame length in bytes (without preamble/IFG/FCS).
func (p *Packet) Len() int { return len(p.Data) }

// Clone deep-copies the packet, sharing nothing with the original. The copy
// lives in pooled storage: multicast replication clones every template
// arrival, and without recycling those buffers the replication hot loop
// would be GC-bound. The clone's owner may hand it back with Release.
func (p *Packet) Clone() *Packet {
	c := NewPacket(len(p.Data))
	copy(c.Data, p.Data)
	c.Meta = p.Meta
	if p.Meta.Record != nil {
		c.Meta.Record = append([]uint64(nil), p.Meta.Record...)
	}
	return c
}

// WireOverheadBytes is the per-frame on-the-wire overhead beyond the frame
// bytes themselves. The paper reports a 6.4 ns minimum inter-arrival for
// 64-byte packets at 100 Gbps (§5.1); 6.4 ns * 100 Gbps = 80 bytes, i.e.
// 16 bytes of overhead per 64-byte frame. We adopt that calibration.
const WireOverheadBytes = 16

// WireTimeNs returns the time in nanoseconds a frame of frameLen bytes
// occupies a link of rate gbps (including calibrated overhead).
func WireTimeNs(frameLen int, gbps float64) float64 {
	return float64(frameLen+WireOverheadBytes) * 8 / gbps
}

// Common errors returned by decoders.
var (
	ErrTooShort    = errors.New("netproto: buffer too short")
	ErrBadVersion  = errors.New("netproto: bad IP version")
	ErrBadHdrLen   = errors.New("netproto: bad header length")
	ErrUnsupported = errors.New("netproto: unsupported layer")
)

// EtherType values understood by the decoder.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeIPv6 uint16 = 0x86DD
	EtherTypeVLAN uint16 = 0x8100
)

// IP protocol numbers understood by the decoder.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
)

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
	TCPUrg uint8 = 1 << 5
)

// Checksum adds data, as big-endian 16-bit words, to the running
// ones'-complement sum used by IPv4/TCP/UDP/ICMP.
func Checksum(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// FoldChecksum folds a running sum's carries and complements it into the
// 16-bit checksum field value.
func FoldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// PseudoHeaderSum computes the IPv4 pseudo-header contribution for TCP/UDP
// checksums.
func PseudoHeaderSum(src, dst uint32, proto uint8, length int) uint32 {
	var sum uint32
	sum += src >> 16
	sum += src & 0xffff
	sum += dst >> 16
	sum += dst & 0xffff
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// IPv4Addr is a 32-bit IPv4 address in host-order uint32 form, the natural
// representation for match-action pipelines.
type IPv4Addr uint32

// ParseIPv4 parses dotted-quad notation.
func ParseIPv4(s string) (IPv4Addr, error) {
	var a, b, c, d int
	if n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); n != 4 || err != nil {
		return 0, fmt.Errorf("netproto: bad IPv4 address %q", s)
	}
	for _, v := range []int{a, b, c, d} {
		if v < 0 || v > 255 {
			return 0, fmt.Errorf("netproto: bad IPv4 address %q", s)
		}
	}
	return IPv4Addr(a<<24 | b<<16 | c<<8 | d), nil
}

// MustIPv4 is ParseIPv4 that panics on error, for constants in tests and
// examples.
func MustIPv4(s string) IPv4Addr {
	a, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 builds a MAC from the low 48 bits of v, handy for
// synthesizing distinct addresses in workloads.
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}
