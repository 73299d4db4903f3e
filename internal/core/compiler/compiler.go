package compiler

import (
	"fmt"
	"math"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/stats"
)

// Options tunes compilation.
type Options struct {
	// RecircPaths is how many recirculation paths the target switch has
	// (internal path plus loopback-mode ports); bounds the template
	// count via the accelerator capacity (§6.1).
	RecircPaths int
	// DigestBits is the stored partial-key width for reduce/distinct
	// (§5.2; Fig. 17 studies 16 vs 32).
	DigestBits int
	// ArraySize is the per-array cuckoo slot count.
	ArraySize int
	// MaxHeaderSpace caps header-space enumeration for false-positive
	// precomputation.
	MaxHeaderSpace int
	// RandTableSize is the inverse-transform table size (§5.1's
	// two-table method).
	RandTableSize int
}

func (o Options) withDefaults() Options {
	if o.RecircPaths == 0 {
		o.RecircPaths = 1
	}
	if o.DigestBits == 0 {
		o.DigestBits = 16
	}
	if o.ArraySize == 0 {
		o.ArraySize = 1 << 14
	}
	// Partial-key cuckoo hashing derives the alternate slot with an XOR,
	// which needs a power-of-two array.
	for o.ArraySize&(o.ArraySize-1) != 0 {
		o.ArraySize++
	}
	if o.MaxHeaderSpace == 0 {
		o.MaxHeaderSpace = 1 << 21
	}
	if o.RandTableSize == 0 {
		o.RandTableSize = 512
	}
	return o
}

// Compile translates a task into a deployable program, rejecting tasks the
// switching ASIC cannot accommodate (§6.1).
func Compile(task *ntapi.Task, opts Options) (*Program, error) {
	opts = opts.withDefaults()
	prog := &Program{Task: task}

	queryIDs := map[*ntapi.Query]int{}
	for i, q := range task.Queries {
		queryIDs[q] = i + 1
	}

	for i, tr := range task.Triggers {
		tmpl, err := compileTrigger(tr, i+1, queryIDs, opts)
		if err != nil {
			return nil, fmt.Errorf("compiler: trigger %s: %w", tr.Name, err)
		}
		prog.Templates = append(prog.Templates, tmpl)
	}

	// spaces, with the scratch of the largest key space, is unreachable
	// after this loop: none of it is live when the gate runs.
	spaces := newKeySpaces(prog.Templates)
	for i, q := range task.Queries {
		plan, err := compileQuery(q, i+1, prog, spaces, opts)
		if err != nil {
			return nil, fmt.Errorf("compiler: query %s: %w", q.Name, err)
		}
		prog.Queries = append(prog.Queries, plan)
	}

	// Wire stateless connections: a query that triggers a template must
	// capture the record fields that template stamps.
	for _, tmpl := range prog.Templates {
		if tmpl.FromQueryID == 0 {
			continue
		}
		plan := prog.QueryByID(tmpl.FromQueryID)
		if plan == nil {
			return nil, fmt.Errorf("compiler: trigger %s references unregistered query", tmpl.Trigger.Name)
		}
		if plan.TriggerTemplateID != 0 {
			return nil, fmt.Errorf("compiler: query %s triggers both T%d and T%d",
				plan.Query.Name, plan.TriggerTemplateID, tmpl.ID)
		}
		plan.TriggerTemplateID = tmpl.ID
		plan.RecordFields = recordFields(tmpl)
	}

	prog.P4 = generateP4(prog, opts)
	if err := prog.P4.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: generated program invalid: %w", err)
	}
	prog.Resources = estimateResources(prog)
	if err := validateProgram(prog, opts); err != nil {
		return nil, err
	}
	return prog, nil
}

// compileTrigger builds a template packet plus its replicator and editor
// configuration.
func compileTrigger(tr *ntapi.Trigger, id int, queryIDs map[*ntapi.Query]int, opts Options) (*Template, error) {
	tmpl := &Template{ID: id, Trigger: tr}

	if tr.From != nil {
		qid, ok := queryIDs[tr.From]
		if !ok {
			return nil, fmt.Errorf("triggering query %s not part of the task", tr.From.Name)
		}
		tmpl.FromQueryID = qid
	}

	// Flatten set operations into (field, value) pairs; later sets win.
	type pair struct {
		field asic.Field
		value ntapi.Value
	}
	var pairs []pair
	for _, so := range tr.Sets {
		if len(so.Fields) != len(so.Values) {
			return nil, fmt.Errorf("set with %d fields but %d values", len(so.Fields), len(so.Values))
		}
		for i, name := range so.Fields {
			f, err := asic.FieldByName(name)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, pair{f, so.Values[i]})
		}
	}

	// Initial header values for the template packet (CPU work).
	initial := map[asic.Field]uint64{}
	proto := uint64(netproto.IPProtoUDP)
	for _, p := range pairs {
		if c, ok := p.value.(ntapi.Const); ok {
			if uint64(c) > p.field.MaxValue() {
				return nil, fmt.Errorf("field %v: constant %d exceeds its %d-bit width",
					p.field, uint64(c), p.field.Width())
			}
			initial[p.field] = uint64(c)
			if p.field == asic.FieldIPv4Proto {
				proto = uint64(c)
			}
		}
	}
	// A TCP field set implies TCP even without an explicit proto.
	for _, p := range pairs {
		switch p.field {
		case asic.FieldTCPFlags, asic.FieldTCPSeq, asic.FieldTCPAck, asic.FieldTCPWindow:
			if _, explicit := initial[asic.FieldIPv4Proto]; !explicit {
				proto = uint64(netproto.IPProtoTCP)
			}
		}
	}

	vlan := false
	for _, p := range pairs {
		if p.field == asic.FieldVlanID || p.field == asic.FieldVlanPCP {
			vlan = true
		}
	}
	pkt, err := buildTemplatePacket(tr, id, proto, initial, vlan)
	if err != nil {
		return nil, err
	}
	tmpl.Packet = pkt

	// Editor program: every non-constant value becomes a modification.
	streamLen := uint64(1)
	for _, p := range pairs {
		mod, err := compileMod(p.field, p.value, opts)
		if err != nil {
			return nil, fmt.Errorf("field %v: %w", p.field, err)
		}
		if mod == nil {
			continue // constant, already in the template
		}
		tmpl.Mods = append(tmpl.Mods, *mod)
		if l := mod.StreamLen(); l > streamLen {
			streamLen = l
		}
	}
	tmpl.StreamLen = streamLen
	if tr.Loop > 0 {
		tmpl.LoopPackets = tr.Loop * streamLen
	}
	tmpl.IntervalPs = int64(tr.Interval) * 1000 // time.Duration ns -> ps
	if tr.IntervalDist != nil {
		table, err := intervalTable(*tr.IntervalDist, opts)
		if err != nil {
			return nil, fmt.Errorf("interval distribution: %w", err)
		}
		tmpl.IntervalTablePs = table
		if tmpl.IntervalPs == 0 {
			tmpl.IntervalPs = table[len(table)/2] // median as the initial threshold
		}
	}
	tmpl.Ports = append([]int(nil), tr.Ports...)
	if len(tmpl.Ports) == 0 && tmpl.FromQueryID == 0 {
		return nil, fmt.Errorf("start trigger needs at least one injection port")
	}
	return tmpl, nil
}

// buildTemplatePacket is the switch-CPU side of template-based generation:
// assemble the frame with initial header values and the constant payload.
func buildTemplatePacket(tr *ntapi.Trigger, id int, proto uint64, initial map[asic.Field]uint64, vlan bool) (*netproto.Packet, error) {
	length := tr.Length
	var minLen int
	switch uint8(proto) {
	case netproto.IPProtoTCP:
		minLen = netproto.MinTCPFrame
	case netproto.IPProtoUDP:
		minLen = netproto.MinUDPFrame
	case netproto.IPProtoICMP:
		minLen = netproto.MinICMPFrame
	default:
		return nil, fmt.Errorf("unsupported protocol %d (tcp, udp and icmp templates only)", proto)
	}
	if vlan {
		minLen += netproto.Dot1QLen
	}
	if vlan && uint8(proto) == netproto.IPProtoICMP {
		return nil, fmt.Errorf("vlan-tagged icmp templates are not supported")
	}
	if length == 0 {
		length = 64
	}
	if length < minLen || length > 1500 {
		return nil, fmt.Errorf("frame length %d outside [%d, 1500]", length, minLen)
	}
	if len(tr.PayloadV) > length-minLen {
		return nil, fmt.Errorf("payload of %d bytes does not fit a %d-byte frame", len(tr.PayloadV), length)
	}

	var raw []byte
	var err error
	if uint8(proto) == netproto.IPProtoICMP {
		raw, err = netproto.BuildICMP(netproto.ICMPSpec{
			SrcMAC:   netproto.MACFromUint64(initial[asic.FieldEthSrc]),
			DstMAC:   netproto.MACFromUint64(initial[asic.FieldEthDst]),
			SrcIP:    netproto.IPv4Addr(initial[asic.FieldIPv4Src]),
			DstIP:    netproto.IPv4Addr(initial[asic.FieldIPv4Dst]),
			Type:     uint8(initial[asic.FieldICMPType]),
			Ident:    uint16(initial[asic.FieldICMPIdent]),
			Seq:      uint16(initial[asic.FieldICMPSeq]),
			Payload:  tr.PayloadV,
			FrameLen: length,
		})
	} else if uint8(proto) == netproto.IPProtoTCP {
		raw, err = netproto.BuildTCP(netproto.TCPSpec{
			SrcMAC:   netproto.MACFromUint64(initial[asic.FieldEthSrc]),
			DstMAC:   netproto.MACFromUint64(initial[asic.FieldEthDst]),
			SrcIP:    netproto.IPv4Addr(initial[asic.FieldIPv4Src]),
			DstIP:    netproto.IPv4Addr(initial[asic.FieldIPv4Dst]),
			SrcPort:  uint16(firstOf(initial, asic.FieldTCPSrcPort, asic.FieldL4SrcPort)),
			DstPort:  uint16(firstOf(initial, asic.FieldTCPDstPort, asic.FieldL4DstPort)),
			Seq:      uint32(initial[asic.FieldTCPSeq]),
			Ack:      uint32(initial[asic.FieldTCPAck]),
			Flags:    uint8(initial[asic.FieldTCPFlags]),
			Payload:  tr.PayloadV,
			FrameLen: length,
			VLAN:     vlan,
			VlanID:   uint16(initial[asic.FieldVlanID]),
			VlanPCP:  uint8(initial[asic.FieldVlanPCP]),
		})
	} else {
		sp := firstOf(initial, asic.FieldUDPSrcPort, asic.FieldL4SrcPort, asic.FieldTCPSrcPort)
		dp := firstOf(initial, asic.FieldUDPDstPort, asic.FieldL4DstPort, asic.FieldTCPDstPort)
		raw, err = netproto.BuildUDP(netproto.UDPSpec{
			SrcMAC:   netproto.MACFromUint64(initial[asic.FieldEthSrc]),
			DstMAC:   netproto.MACFromUint64(initial[asic.FieldEthDst]),
			SrcIP:    netproto.IPv4Addr(initial[asic.FieldIPv4Src]),
			DstIP:    netproto.IPv4Addr(initial[asic.FieldIPv4Dst]),
			SrcPort:  uint16(sp),
			DstPort:  uint16(dp),
			Payload:  tr.PayloadV,
			FrameLen: length,
			VLAN:     vlan,
			VlanID:   uint16(initial[asic.FieldVlanID]),
			VlanPCP:  uint8(initial[asic.FieldVlanPCP]),
		})
	}
	if err != nil {
		return nil, err
	}
	return &netproto.Packet{Data: raw, Meta: netproto.Meta{TemplateID: id}}, nil
}

// firstOf returns the first field present in the initial-value map.
func firstOf(initial map[asic.Field]uint64, fields ...asic.Field) uint64 {
	for _, f := range fields {
		if v, ok := initial[f]; ok {
			return v
		}
	}
	return 0
}

// compileMod translates one set value into an editor modification; nil for
// constants (already in the template packet).
func compileMod(f asic.Field, v ntapi.Value, opts Options) (*FieldMod, error) {
	// The editor's port alias: when a TCP-named alias lands on a UDP
	// template the runtime resolves via the L4 union fields.
	switch val := v.(type) {
	case ntapi.Const:
		return nil, nil
	case ntapi.Payload:
		return nil, fmt.Errorf("payload is CPU-side only; the pipeline cannot rewrite payloads (§6.2)")
	case ntapi.List:
		if len(val) == 0 {
			return nil, fmt.Errorf("empty value list")
		}
		for _, x := range val {
			if x > f.MaxValue() {
				return nil, fmt.Errorf("list value %d exceeds %d-bit field", x, f.Width())
			}
		}
		return &FieldMod{Field: f, Kind: ModList, List: append([]uint64(nil), val...)}, nil
	case ntapi.Range:
		if val.Count() == 0 {
			return nil, fmt.Errorf("empty range %s", val)
		}
		if val.End > f.MaxValue() {
			return nil, fmt.Errorf("range end %d exceeds %d-bit field", val.End, f.Width())
		}
		return &FieldMod{Field: f, Kind: ModProgression, Start: val.Start, End: val.End, Step: val.Step}, nil
	case ntapi.Random:
		return compileRandom(f, val, opts)
	case ntapi.Ref:
		rf, err := asic.FieldByName(val.Field)
		if err != nil {
			return nil, fmt.Errorf("record reference: %w", err)
		}
		return &FieldMod{Field: f, Kind: ModFromRecord, RecordField: rf, RecordOffset: val.Offset}, nil
	}
	return nil, fmt.Errorf("unsupported value %v", v)
}

// compileRandom builds the inverse-transform lookup table (§5.1): a uniform
// random draw indexes a quantized inverse CDF. Honouring the Tofino
// limitation (§6.1), the uniform generator width is a power of two and the
// table adds the offset.
func compileRandom(f asic.Field, r ntapi.Random, opts Options) (*FieldMod, error) {
	bits := r.Bits
	if bits <= 0 || bits > f.Width() {
		bits = f.Width()
	}
	if bits > 30 {
		bits = 30
	}
	var inv func(p float64) float64
	switch r.Dist {
	case ntapi.DistUniform:
		lo, hi := r.P1, r.P2
		if hi < lo {
			return nil, fmt.Errorf("uniform random with hi < lo")
		}
		inv = func(p float64) float64 { return lo + p*(hi-lo) }
	case ntapi.DistNormal:
		if r.P2 < 0 {
			return nil, fmt.Errorf("normal random with negative stddev")
		}
		inv = stats.NormalInvCDF(r.P1, r.P2)
	case ntapi.DistExponential:
		if r.P1 <= 0 {
			return nil, fmt.Errorf("exponential random with non-positive rate")
		}
		inv = stats.ExponentialInvCDF(1 / r.P1) // P1 is the mean
	default:
		return nil, fmt.Errorf("unknown distribution %q", r.Dist)
	}
	n := opts.RandTableSize
	table := make([]uint64, n)
	maxV := float64(f.MaxValue())
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		v := math.Round(inv(p))
		if v < 0 {
			v = 0
		}
		if v > maxV {
			v = maxV
		}
		table[i] = uint64(v)
	}
	return &FieldMod{Field: f, Kind: ModRandom, InvTable: table, RandBits: bits}, nil
}

// intervalTable builds the inverse-transform table of interval thresholds
// (ps) for a random inter-departure distribution with nanosecond parameters.
func intervalTable(r ntapi.Random, opts Options) ([]int64, error) {
	var inv func(p float64) float64
	switch r.Dist {
	case ntapi.DistUniform:
		if r.P2 < r.P1 || r.P1 < 0 {
			return nil, fmt.Errorf("uniform interval wants 0 <= lo <= hi ns")
		}
		inv = func(p float64) float64 { return r.P1 + p*(r.P2-r.P1) }
	case ntapi.DistNormal:
		if r.P1 <= 0 || r.P2 < 0 {
			return nil, fmt.Errorf("normal interval wants positive mean")
		}
		inv = stats.NormalInvCDF(r.P1, r.P2)
	case ntapi.DistExponential:
		if r.P1 <= 0 {
			return nil, fmt.Errorf("exponential interval wants a positive mean")
		}
		inv = stats.ExponentialInvCDF(1 / r.P1)
	default:
		return nil, fmt.Errorf("unknown interval distribution %q", r.Dist)
	}
	n := opts.RandTableSize
	table := make([]int64, n)
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		ns := inv(p)
		if ns < 0 {
			ns = 0
		}
		table[i] = int64(ns * 1000) // ns -> ps
	}
	return table, nil
}

// compileQuery builds a query plan including header-space extraction and
// false-positive precomputation.
func compileQuery(q *ntapi.Query, id int, prog *Program, spaces *keySpaces, opts Options) (*QueryPlan, error) {
	plan := &QueryPlan{
		ID:    id,
		Query: q,
		Port:  q.Port,
		Kind:  q.Kind,
		Func:  q.Func,

		DigestBits: opts.DigestBits,
		ArraySize:  opts.ArraySize,
		PolyArray1: asic.PolyCRC32,
		PolyArray2: asic.PolyCRC32C,
		PolyDigest: asic.PolyKoopman,
	}
	if q.Sent != nil {
		plan.Egress = true
		for _, t := range prog.Templates {
			if t.Trigger == q.Sent {
				plan.SentTemplateID = t.ID
			}
		}
		if plan.SentTemplateID == 0 {
			return nil, fmt.Errorf("monitored trigger %s not part of the task", q.Sent.Name)
		}
	}

	for _, f := range q.Filters {
		if f.Field == "count" {
			return nil, fmt.Errorf("count is only filterable after reduce")
		}
		fld, err := asic.FieldByName(f.Field)
		if err != nil {
			return nil, err
		}
		if f.Value > fld.MaxValue() {
			return nil, fmt.Errorf("filter %s: value %d exceeds %d-bit field", f, f.Value, fld.Width())
		}
		plan.Filters = append(plan.Filters, CompiledPred{Field: fld, Op: f.Op, Value: f.Value})
	}
	for _, p := range q.Post {
		if p.Field != "count" {
			return nil, fmt.Errorf("post-reduce filters apply to count, got %q", p.Field)
		}
		plan.Post = append(plan.Post, AggPred{Op: p.Op, Value: p.Value})
	}

	if q.Kind == ntapi.KindDelay {
		keys := q.Keys
		if len(keys) == 0 {
			keys = []string{"ipv4.id"}
		}
		for _, k := range keys {
			fld, err := asic.FieldByName(k)
			if err != nil {
				return nil, fmt.Errorf("delay key: %w", err)
			}
			plan.Keys = append(plan.Keys, fld)
		}
		return plan, nil
	}
	if q.Kind == ntapi.KindReduce || q.Kind == ntapi.KindDistinct {
		keys := q.Keys
		if len(keys) == 0 {
			keys = []string{"ipv4.sip", "ipv4.dip", "ipv4.proto", "l4.sport", "l4.dport"}
		}
		for _, k := range keys {
			fld, err := asic.FieldByName(k)
			if err != nil {
				return nil, fmt.Errorf("reduce key: %w", err)
			}
			plan.Keys = append(plan.Keys, fld)
		}
		if q.Kind == ntapi.KindReduce && q.Func != ntapi.AggCount && len(q.MapFields) > 0 {
			vf, err := asic.FieldByName(q.MapFields[0])
			if err != nil {
				return nil, fmt.Errorf("reduce value field: %w", err)
			}
			plan.ValueField = vf
		}
		// Extract the header space and precompute false positives.
		sp := spaces.of(plan, opts.MaxHeaderSpace)
		plan.HeaderSpaceSize, plan.HeaderSpaceTruncated, plan.ExactKeys = sp.size, sp.truncated, sp.exact
	}
	return plan, nil
}

// recordFields collects the packet fields a stateless trigger needs in its
// trigger records: everything its ModFromRecord mods reference.
func recordFields(tmpl *Template) []asic.Field {
	seen := map[asic.Field]bool{}
	var out []asic.Field
	add := func(f asic.Field) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, m := range tmpl.Mods {
		if m.Kind == ModFromRecord {
			add(m.RecordField)
		}
	}
	add(asic.FieldInPort) // responses leave on the port the match arrived on
	return out
}
