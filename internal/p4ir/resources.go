package p4ir

import "fmt"

// Resources is the per-program usage across the seven hardware resource
// classes the paper's Table 7 reports.
type Resources struct {
	CrossbarBytes int     // match crossbar input bytes
	SRAMBlocks    float64 // 16 KB SRAM blocks
	TCAMBlocks    float64 // 44b x 512 TCAM blocks
	VLIWSlots     int     // VLIW instruction slots
	HashBits      int     // hash-distribution-unit bits
	SALUs         int     // stateful ALUs
	Gateways      int     // gateway (condition) resources
}

// Add accumulates other into r.
func (r *Resources) Add(other Resources) {
	r.CrossbarBytes += other.CrossbarBytes
	r.SRAMBlocks += other.SRAMBlocks
	r.TCAMBlocks += other.TCAMBlocks
	r.VLIWSlots += other.VLIWSlots
	r.HashBits += other.HashBits
	r.SALUs += other.SALUs
	r.Gateways += other.Gateways
}

// Column is one resource class of a Resources value, as a printable name
// and its amount.
type Column struct {
	Name  string
	Value float64
}

// Columns returns the seven resource classes in Table 7 order. Every loop
// over "each resource class" goes through it, so the classes are listed
// once; two Resources values line up index by index.
func (r Resources) Columns() [7]Column {
	return [7]Column{
		{"match crossbar", float64(r.CrossbarBytes)},
		{"SRAM", r.SRAMBlocks},
		{"TCAM", r.TCAMBlocks},
		{"VLIW", float64(r.VLIWSlots)},
		{"hash bits", float64(r.HashBits)},
		{"SALU", float64(r.SALUs)},
		{"gateways", float64(r.Gateways)},
	}
}

// RMT-style accounting constants.
const (
	sramBlockBits   = 16 * 1024 * 8 // one 16 KB SRAM block
	tcamBlockBits   = 44 * 512      // one TCAM block
	exactOverheadB  = 4 * 8         // per-entry pointer/version overhead bits
	actionEntryBits = 64            // action data bits per entry (typical)
)

func ceilDiv(a, b int) float64 {
	if a <= 0 {
		return 0
	}
	return float64((a + b - 1) / b)
}

// Estimate computes the resource usage of a program.
func Estimate(p *Program) Resources {
	var r Resources

	for _, t := range p.Tables {
		r.Add(TableCost(p, t))
	}

	for _, reg := range p.Registers {
		r.Add(RegisterCost(reg))
	}

	var walk func(stmts []ControlStmt)
	walk = func(stmts []ControlStmt) {
		for _, s := range stmts {
			if s.If != "" {
				r.Gateways++
			}
			walk(s.Then)
			walk(s.Else)
		}
	}
	walk(p.Ingress)
	walk(p.Egress)
	return r
}

// TableCost prices one table declaration: match memory and crossbar input
// plus its actions' VLIW/SALU/hash usage. The IR verifier uses the same
// accounting to place tables into stages, so totals (Estimate) and the
// per-stage placement always agree.
func TableCost(p *Program, t *TableDef) Resources {
	var r Resources
	keyBits := 0
	for _, k := range t.Keys {
		keyBits += k.Bits
	}
	keyBytes := (keyBits + 7) / 8
	size := t.Size
	if size == 0 {
		size = 1
	}
	switch t.Match {
	case MatchExact:
		r.CrossbarBytes += keyBytes
		// Exact match: hashed ways; entry = key + overhead + action data.
		entryBits := keyBits + exactOverheadB + actionEntryBits
		r.SRAMBlocks += ceilDiv(entryBits*size, sramBlockBits)
		r.HashBits += keyBits // hash distribution over the key
	case MatchTernary:
		r.CrossbarBytes += keyBytes
		entryBits := keyBits * 2 // value+mask
		r.TCAMBlocks += ceilDiv(entryBits*size, tcamBlockBits)
		r.SRAMBlocks += ceilDiv(actionEntryBits*size, sramBlockBits)
	case MatchRange:
		r.CrossbarBytes += keyBytes
		// Range expansion: a [lo,hi] entry expands to up to 2w-2
		// prefixes; price 4x TCAM per entry as the compiler does.
		entryBits := keyBits * 2 * 4
		r.TCAMBlocks += ceilDiv(entryBits*size, tcamBlockBits)
		r.SRAMBlocks += ceilDiv(actionEntryBits*size, sramBlockBits)
	}
	for _, an := range t.Actions {
		if a := p.action(an); a != nil {
			r.Add(actionResources(p, a))
		}
	}
	return r
}

// RegisterCost prices one register array's SRAM footprint.
func RegisterCost(reg *RegisterDef) Resources {
	return Resources{SRAMBlocks: ceilDiv(reg.Width*reg.Size, sramBlockBits)}
}

// actionResources prices one compound action.
func actionResources(p *Program, a *ActionDef) Resources {
	var r Resources
	for _, op := range a.Ops {
		switch op.Kind {
		case OpModifyField, OpAddToField, OpMulticast, OpDropPacket:
			r.VLIWSlots++
		case OpRegisterRead, OpRegisterWrite, OpRegisterRMW:
			r.VLIWSlots++
			r.SALUs++
			if reg := p.register(op.Dst); reg != nil {
				// Index hash feeding the SALU.
				r.HashBits += 16
			}
		case OpHash:
			r.VLIWSlots++
			r.HashBits += op.Bits
		case OpRandom:
			r.VLIWSlots++
			r.HashBits += op.Bits // RNG shares the hash/dist units
		case OpGenerateDigest:
			r.VLIWSlots++
		case OpRecirculate:
			r.VLIWSlots++
		case OpNoOp:
		}
	}
	return r
}

// SwitchP4Baseline is the absolute resource usage of the reference switch.p4
// program on a Tofino-class chip, used to normalize Table 7. The values are
// calibrated estimates from the public switch.p4 resource reports: switch.p4
// is a large stateless forwarding program, so it is heavy on crossbar, SRAM,
// TCAM and VLIW but light on SALUs (the paper notes exactly this when
// explaining why distinct/reduce SALU percentages look large).
var SwitchP4Baseline = Resources{
	CrossbarBytes: 800,
	SRAMBlocks:    593,
	TCAMBlocks:    186,
	VLIWSlots:     355,
	HashBits:      1630,
	SALUs:         18,
	Gateways:      70,
}

// NormalizedBy returns r as percentages of base, column by column.
type Normalized struct {
	Crossbar, SRAM, TCAM, VLIW, HashBits, SALU, Gateway float64
}

// Normalize divides r by base and returns percentages (0–100).
func (r Resources) Normalize(base Resources) Normalized {
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * a / b
	}
	return Normalized{
		Crossbar: pct(float64(r.CrossbarBytes), float64(base.CrossbarBytes)),
		SRAM:     pct(r.SRAMBlocks, base.SRAMBlocks),
		TCAM:     pct(r.TCAMBlocks, base.TCAMBlocks),
		VLIW:     pct(float64(r.VLIWSlots), float64(base.VLIWSlots)),
		HashBits: pct(float64(r.HashBits), float64(base.HashBits)),
		SALU:     pct(float64(r.SALUs), float64(base.SALUs)),
		Gateway:  pct(float64(r.Gateways), float64(base.Gateways)),
	}
}

func (n Normalized) String() string {
	return fmt.Sprintf("xbar=%.2f%% sram=%.2f%% tcam=%.2f%% vliw=%.2f%% hash=%.2f%% salu=%.2f%% gw=%.2f%%",
		n.Crossbar, n.SRAM, n.TCAM, n.VLIW, n.HashBits, n.SALU, n.Gateway)
}
