package compiler

// exec.go is the compiled-plan half of the witness differential oracle.
// internal/verify's symbolic walker extracts witness packets — one concrete
// input per feasible leaf path of the generated p4ir program — and
// verify.Interp replays each over two field stores:
//
//   - ReplayPlan (here): serializes the witness into a real wire frame,
//     parses it into a real asic.PHV, and reads and writes fields through
//     the asic field codec (phvMachine);
//   - verify.NewMapMachine: a flat field map with no packet bytes at all.
//
// The control walk, the table matcher and the op semantics are one
// implementation, so a disagreement pinpoints a divergence between the
// asic frame and field codec and the IR's field map.

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/verify"
)

// TemplateInvariants derives the environment facts the symbolic verifier
// needs from the compiled templates: a packet whose metadata carries
// template N's ID is (by construction of HTPS) a clone of template N's
// packet, so it has template N's header stack and select-field values. A
// header the generated parser cannot extract (VLAN, ICMP) shows up as a
// Then atom over that header, which refutes any path claiming the ID — the
// walker then never reports the template's editor writes as invalid-header
// accesses on packets that cannot exist.
func TemplateInvariants(prog *Program) []verify.Implication {
	var out []verify.Implication
	for _, tmpl := range prog.Templates {
		phv := asic.NewPHV(tmpl.Packet.Clone())
		then := []p4ir.Atom{{Field: "eth.type", Op: p4ir.CmpEq, Value: uint64(phv.Stack.Eth.EtherType)}}
		if phv.Has(netproto.LayerVLAN) {
			then = append(then, p4ir.Atom{Field: "vlan.id", Op: p4ir.CmpEq, Value: uint64(phv.Stack.VLAN.VID)})
		}
		if phv.Has(netproto.LayerIPv4) {
			then = append(then, p4ir.Atom{Field: "ipv4.proto", Op: p4ir.CmpEq, Value: uint64(phv.Stack.IP4.Protocol)})
		}
		if phv.Has(netproto.LayerICMP) {
			then = append(then, p4ir.Atom{Field: "icmp.type", Op: p4ir.CmpEq, Value: uint64(phv.Stack.ICMP.Type)})
		}
		out = append(out, verify.Implication{
			If:   p4ir.Atom{Field: "meta.template_id", Op: p4ir.CmpEq, Value: uint64(tmpl.ID)},
			Then: then,
		})
		phv.Pkt.Release()
	}
	return out
}

// AnalyzePlan runs the path-sensitive verifier over the compiled plan with
// the template invariants installed.
func AnalyzePlan(prog *Program, opts verify.Options) *verify.Report {
	opts.Invariants = append(TemplateInvariants(prog), opts.Invariants...)
	return verify.Analyze(prog.P4, opts)
}

// SyntheticEntries builds one hit entry per runtime-populated table (a table
// the IR declares without compile-time entries) from the witness's initial
// key values. Installing the same map on both replays keeps the
// differential meaningful: each must reach the same hit-or-miss verdict from
// the key values its own field store holds. Generated programs hold exact
// tables only (TestCorpusVerifiesClean pins it), so an entry is an exact key.
func SyntheticEntries(p *p4ir.Program, wit verify.Witness) map[string][]p4ir.Entry {
	m := verify.NewMapMachine(wit)
	out := map[string][]p4ir.Entry{}
	for _, t := range p.Tables {
		if len(t.Entries) > 0 || len(t.Keys) == 0 || t.Match != p4ir.MatchExact {
			continue
		}
		vals := make([]uint64, len(t.Keys))
		for i, kd := range t.Keys {
			vals[i] = m.Get(kd.Field)
		}
		out[t.Name] = []p4ir.Entry{{Values: vals}}
	}
	return out
}

// witnessPacket serializes a normalized witness into a wire frame. The
// layers are assembled by hand — not through the netproto builders, whose
// convenience defaults (TTL 64, TCP window 65535) would diverge from the
// zero defaults the field map assumes for unconstrained fields.
func witnessPacket(wit *verify.Witness) (*netproto.Packet, error) {
	has := map[string]bool{}
	for _, h := range wit.Headers {
		has[h] = true
	}
	if has["vlan"] {
		return nil, fmt.Errorf("compiler: witness %q carries a VLAN header, which generated parsers never extract", wit.Program)
	}
	f := func(name string) uint64 { return wit.Fields[name] }

	layers := []netproto.SerializableLayer{&netproto.Ethernet{
		Dst:       netproto.MACFromUint64(f("eth.dst")),
		Src:       netproto.MACFromUint64(f("eth.src")),
		EtherType: uint16(f("eth.type")),
	}}
	hdrLen := netproto.EthernetLen
	if has["ipv4"] {
		src, dst := netproto.IPv4Addr(f("ipv4.sip")), netproto.IPv4Addr(f("ipv4.dip"))
		layers = append(layers, &netproto.IPv4{
			TOS: uint8(f("ipv4.tos")), ID: uint16(f("ipv4.id")),
			TTL: uint8(f("ipv4.ttl")), Protocol: uint8(f("ipv4.proto")),
			Src: src, Dst: dst,
		})
		hdrLen += netproto.IPv4MinLen
		switch {
		case has["tcp"]:
			layers = append(layers, &netproto.TCP{
				SrcPort: uint16(f("tcp.sport")), DstPort: uint16(f("tcp.dport")),
				Seq: uint32(f("tcp.seq_no")), Ack: uint32(f("tcp.ack_no")),
				Flags: uint8(f("tcp.flag")), Window: uint16(f("tcp.window")),
				PseudoSrc: src, PseudoDst: dst,
			})
			hdrLen += netproto.TCPMinLen
		case has["udp"]:
			layers = append(layers, &netproto.UDP{
				SrcPort: uint16(f("udp.sport")), DstPort: uint16(f("udp.dport")),
				PseudoSrc: src, PseudoDst: dst,
			})
			hdrLen += netproto.UDPLen
		case has["icmp"]:
			layers = append(layers, &netproto.ICMP{
				Type: uint8(f("icmp.type")), Ident: uint16(f("icmp.ident")),
				Seq: uint16(f("icmp.seq")),
			})
			hdrLen += netproto.ICMPLen
		}
	}
	frameLen := int(f("pkt_len"))
	if frameLen < hdrLen {
		frameLen = hdrLen
	}
	if frameLen > hdrLen {
		layers = append(layers, netproto.Pad(frameLen-hdrLen))
	}
	raw, err := netproto.Serialize(layers...)
	if err != nil {
		return nil, fmt.Errorf("compiler: serializing witness %q: %w", wit.Program, err)
	}
	pkt := &netproto.Packet{Data: raw}
	pkt.Meta.TemplateID = int(f("meta.template_id"))
	pkt.Meta.InPort = int(f("meta.in_port"))
	pkt.Meta.IngressPs = int64(f("meta.ingress_ts"))
	pkt.Meta.ReplicaID = int(f("eg_intr_md.rid"))
	// The frame is the authoritative length; expose it to the field map.
	wit.Fields["pkt_len"] = uint64(pkt.Len())
	return pkt, nil
}

// phvMachine adapts an asic.PHV to the verify.Machine interface. Header and
// intrinsic fields go through the real asic field codec (width truncation,
// read-only intrinsics, the VLAN gate, l4 aliasing); compiler metadata the
// asic does not model lives in a width-masked side map.
type phvMachine struct {
	phv  *asic.PHV
	side map[string]uint64
}

func newPHVMachine(phv *asic.PHV, wit verify.Witness) *phvMachine {
	m := &phvMachine{phv: phv, side: map[string]uint64{"meta.one": 1}}
	for k, v := range wit.Fields {
		if _, err := asic.FieldByName(k); err == nil {
			continue // parsed from the frame or carried in Meta
		}
		switch k {
		case "eg_intr_md.rid", "ig_intr_md.mcast_grp":
			continue
		}
		m.side[k] = v & verify.WidthMask(k)
	}
	return m
}

func (m *phvMachine) Get(name string) uint64 {
	switch name {
	case "eg_intr_md.rid":
		return uint64(m.phv.Meta.ReplicaID) & 0xffff
	case "ig_intr_md.mcast_grp":
		return uint64(m.phv.McastGroup) & 0xffff
	}
	if f, err := asic.FieldByName(name); err == nil {
		return f.Get(m.phv)
	}
	return m.side[name]
}

func (m *phvMachine) Set(name string, v uint64) {
	switch name {
	case "eg_intr_md.rid":
		m.phv.Meta.ReplicaID = int(v & 0xffff)
		return
	case "ig_intr_md.mcast_grp":
		m.phv.McastGroup = int(v & 0xffff)
		return
	}
	if f, err := asic.FieldByName(name); err == nil {
		f.Set(m.phv, v)
		return
	}
	m.side[name] = v & verify.WidthMask(name)
}

// ReplayPlan replays one witness through the compiled plan: real frame,
// real parser, real field codec. The witness is normalized in place (and its
// pkt_len pinned to the actual frame length), so running verify.Interp on
// the same witness afterwards replays the identical input. entries supplies
// synthetic rows for runtime-populated tables; pass the same map to the
// naive side.
func ReplayPlan(prog *Program, wit *verify.Witness, entries map[string][]p4ir.Entry) (*verify.Outcome, error) {
	if prog.P4 == nil {
		return nil, fmt.Errorf("compiler: program has no generated P4 to replay")
	}
	verify.NormalizeWitness(wit)
	pkt, err := witnessPacket(wit)
	if err != nil {
		return nil, err
	}
	in := &verify.Interp{Prog: prog.P4, Entries: entries}
	return in.Exec(newPHVMachine(asic.NewPHV(pkt), *wit)), nil
}
