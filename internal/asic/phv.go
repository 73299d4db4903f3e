package asic

import (
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// PHV is the packet header vector: the parsed representation of a packet
// plus intrinsic metadata, carried through the match-action pipelines.
// The pipeline may read and write header fields and metadata but — like the
// hardware it models — never the payload bytes, and never Pkt.
type PHV struct {
	// Pkt is the underlying wire packet. Its Data is only rewritten by
	// the deparser after the egress pipeline. It is nil in the egress pass
	// of a multicast copy bound for a far end that only counts (DESIGN.md
	// §9.9): nothing would read that copy's bytes.
	Pkt *netproto.Packet

	// Stack holds the parsed headers.
	Stack netproto.Stack

	// FrameLen is the frame length in bytes; the pipeline cannot change
	// it (§5.3 motivates the trigger FIFO with exactly this restriction).
	FrameLen int

	// Meta mirrors the packet's simulation metadata at parse time.
	Meta netproto.Meta

	// Intrinsic egress controls set by the pipeline.
	EgressPort  int  // unicast destination; -1 means unset
	McastGroup  int  // multicast group ID; 0 means none
	Drop        bool // discard at end of pipeline
	Recirculate bool // send back through the recirculation path

	// DigestData, when non-nil, is emitted to the switch CPU through the
	// digest engine at the end of the pass (generate_digest). The engine
	// copies it onto its channel before the pass ends, so a producer may
	// reuse the buffer for its next attachment.
	DigestData []byte

	// Dirty records that a header field changed so the deparser knows to
	// re-serialize headers and fix checksums.
	Dirty bool

	// Scratch is pipeline scratch metadata (temporary PHV containers),
	// reset for every packet.
	Scratch [8]uint64

	// Trace, when non-nil, receives per-stage lifecycle records (table
	// hits, deparse) emitted during this pipeline pass; TraceAt is the
	// pass's virtual instant. Set by the switch after acquiring the PHV —
	// every stage of one pass runs at a single instant, so emitters use
	// TraceAt instead of re-reading the clock.
	Trace   *obs.Trace
	TraceAt netsim.Time
}

// NewPHV parses pkt into a fresh PHV. Parse errors leave the successfully
// decoded outer layers available, as the hardware parser would.
func NewPHV(pkt *netproto.Packet) *PHV {
	p := &PHV{}
	p.init(pkt)
	return p
}

// init (re)parses pkt into p, resetting every pipeline-visible field. It is
// the reuse path behind the switch's PHV pool: a recycled PHV behaves exactly
// like a fresh one, and keeps its decoded-layer list's storage.
func (p *PHV) init(pkt *netproto.Packet) {
	p.Pkt = pkt
	p.FrameLen = pkt.Len()
	p.Meta = pkt.Meta
	p.reset()
	p.parse(pkt.Data)
}

// parse decodes data into p's headers from scratch: every layer the parser
// does not extract reads as it does on a fresh PHV, whatever the last packet
// through a pooled PHV left there.
func (p *PHV) parse(data []byte) {
	p.Stack = netproto.Stack{Decoded: p.Stack.Decoded[:0]}
	// The parser stops at unknown layers without failing the packet.
	_ = p.Stack.Decode(data)
}

// reset clears the pipeline controls and scratch containers, as a fresh
// parse leaves them.
func (p *PHV) reset() {
	p.EgressPort = -1
	p.McastGroup = 0
	p.Drop = false
	p.Recirculate = false
	p.DigestData = nil
	p.Dirty = false
	p.Scratch = [8]uint64{}
	p.Trace = nil
	p.TraceAt = 0
}

// settle deparses p and leaves its headers what a parse of its frame reads,
// checksums included, so an egress pass can start from them instead of
// parsing the frame again. A clean PHV already holds that parse; a dirty one
// is parsed once more after the deparse, because the deparser writes the
// checksums it computes only to the frame.
func (p *PHV) settle() {
	if p.Dirty {
		p.Deparse()
		p.parse(p.Pkt.Data)
	}
}

// initCopy makes p the egress PHV of one multicast copy of src, a settled
// PHV: src's headers, with the payload window rebased onto pkt's frame (nil
// for a copy without one). The caller fills Meta; toEgress resets the
// controls.
func (p *PHV) initCopy(src *PHV, pkt *netproto.Packet) {
	d, s := &p.Stack, &src.Stack
	decoded := d.Decoded
	*d = *s
	d.Decoded = append(decoded[:0], s.Decoded...)
	d.Payload = nil
	if pkt != nil && s.Payload != nil {
		d.Payload = pkt.Data[s.PayloadOffset : s.PayloadOffset+len(s.Payload)]
	}
	p.Pkt = pkt
	p.FrameLen = src.FrameLen
}

// Has reports whether the parser extracted the given layer.
func (p *PHV) Has(t netproto.LayerType) bool { return p.Stack.Has(t) }

// Deparse re-serializes modified headers in place over the packet data and
// recomputes checksums. Frame length never changes: the pipeline cannot add
// or remove bytes.
func (p *PHV) Deparse() {
	if !p.Dirty {
		return
	}
	p.Trace.Emit(p.TraceAt, obs.KindDeparse, p.Meta.UID, "", 0, int64(p.FrameLen))
	data := p.Pkt.Data
	off := 0
	if p.Has(netproto.LayerEthernet) {
		writeEthernet(data[off:], &p.Stack.Eth)
		off += netproto.EthernetLen
	}
	if p.Has(netproto.LayerVLAN) {
		writeDot1Q(data[off:], &p.Stack.VLAN)
		off += netproto.Dot1QLen
	}
	if p.Has(netproto.LayerIPv4) {
		writeIPv4(data[off:], &p.Stack.IP4)
		l4off := off + netproto.IPv4MinLen
		switch {
		case p.Has(netproto.LayerTCP):
			writeTCP(data[l4off:], &p.Stack.TCP, &p.Stack.IP4, int(p.Stack.IP4.TotalLen)-netproto.IPv4MinLen)
		case p.Has(netproto.LayerUDP):
			writeUDP(data[l4off:], &p.Stack.UDP, &p.Stack.IP4)
		case p.Has(netproto.LayerICMP):
			writeICMP(data[l4off:], &p.Stack.ICMP, int(p.Stack.IP4.TotalLen)-netproto.IPv4MinLen)
		}
	}
	p.Dirty = false
}
