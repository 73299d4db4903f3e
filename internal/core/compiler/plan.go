// Package compiler translates NTAPI tasks (§4) into everything the
// HyperTester runtime deploys (§5.1–5.3):
//
//   - template packets the switch CPU will inject (payload and initial
//     header values are CPU work — the pipeline never touches payloads);
//   - replicator configuration: multicast groups, timer intervals, loop
//     bounds;
//   - editor programs: per-field modifications (constant, value list,
//     arithmetic progression, inverse-transform random);
//   - query plans: compiled filters, reduce/distinct configuration, the
//     extracted header space, and the precomputed exact-key-match entries
//     that remove false positives (§5.2);
//   - trigger-record layouts for stateless connections (§5.3);
//   - a p4ir.Program for resource estimation (Table 7) and generated-code
//     line counting (Table 5).
//
// The compiler also rejects invalid or unimplementable tasks (§6.1): bad
// field values, payload transforms, template counts beyond the accelerator
// capacity, and programs exceeding the chip's resource budget.
package compiler

import (
	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/p4ir"
)

// ModKind selects a field-modification mechanism in the editor (§5.1 lists
// exactly these four, plus record stamping for stateless connections).
type ModKind uint8

// Modification kinds.
const (
	ModConst ModKind = iota
	ModList
	ModProgression
	ModRandom
	ModFromRecord
)

// FieldMod is one editor modification of one header field.
type FieldMod struct {
	Field asic.Field
	Kind  ModKind

	// ModConst.
	Const uint64

	// ModList: value indexed by the per-template packet ID.
	List []uint64

	// ModProgression.
	Start, End, Step uint64

	// ModRandom: the inverse-transform lookup table (§5.1's two-table
	// method), indexed by a uniform random bucket.
	InvTable []uint64
	// RandBits is the uniform generator width feeding the table.
	RandBits int

	// ModFromRecord: stamp the field from the trigger record.
	RecordField  asic.Field
	RecordOffset int64
}

// StreamLen returns how many packets one pass over this modification's
// value sequence takes (1 for constants/random).
func (m *FieldMod) StreamLen() uint64 {
	switch m.Kind {
	case ModList:
		return uint64(len(m.List))
	case ModProgression:
		if m.Step == 0 || m.End < m.Start {
			return 1
		}
		return (m.End-m.Start)/m.Step + 1
	}
	return 1
}

// Template is the compiled form of one trigger.
type Template struct {
	ID      int
	Trigger *ntapi.Trigger

	// Packet is the CPU-built template packet (headers initialized,
	// payload written, padded to the trigger's length).
	Packet *netproto.Packet

	// IntervalPs is the replicator timer threshold in picoseconds;
	// 0 fires on every template arrival (line rate).
	IntervalPs int64

	// IntervalTablePs, when non-empty, is an inverse-transform table of
	// interval thresholds (ps): the replicator samples a fresh threshold
	// after every fire, giving random inter-departure times (§3.1).
	IntervalTablePs []int64

	// Ports are the egress test ports; the multicast group is these plus
	// the recirculation continuation copy.
	Ports []int

	// LoopPackets is the total number of generation events before the
	// replicator stops (0 = forever): loop × stream length.
	LoopPackets uint64

	// StreamLen is one pass over the longest value sequence.
	StreamLen uint64

	// Mods is the editor program, applied in order to each replica.
	Mods []FieldMod

	// FromQueryID marks a query-based trigger (stateless connections):
	// the template fires only when the named query has pushed a trigger
	// record. 0 means a start trigger.
	FromQueryID int
}

// CompiledPred is a filter predicate resolved to a PHV field.
type CompiledPred struct {
	Field asic.Field
	Op    ntapi.CmpOp
	Value uint64
}

// Eval applies the predicate to a PHV.
func (p CompiledPred) Eval(phv *asic.PHV) bool {
	v := p.Field.Get(phv)
	switch p.Op {
	case ntapi.OpEq:
		return v == p.Value
	case ntapi.OpNe:
		return v != p.Value
	case ntapi.OpLt:
		return v < p.Value
	case ntapi.OpLe:
		return v <= p.Value
	case ntapi.OpGt:
		return v > p.Value
	case ntapi.OpGe:
		return v >= p.Value
	}
	return false
}

// AggPred is a predicate over the post-reduce aggregate.
type AggPred struct {
	Op    ntapi.CmpOp
	Value uint64
}

// Eval applies the predicate to an aggregate value.
func (p AggPred) Eval(v uint64) bool {
	switch p.Op {
	case ntapi.OpEq:
		return v == p.Value
	case ntapi.OpNe:
		return v != p.Value
	case ntapi.OpLt:
		return v < p.Value
	case ntapi.OpLe:
		return v <= p.Value
	case ntapi.OpGt:
		return v > p.Value
	case ntapi.OpGe:
		return v >= p.Value
	}
	return false
}

// QueryPlan is the compiled form of one query.
type QueryPlan struct {
	ID    int
	Query *ntapi.Query

	// Egress is true when the query monitors sent traffic (deployed at
	// the egress pipeline, §5.2); false monitors received traffic at
	// ingress.
	Egress bool
	// SentTemplateID restricts an egress query to one template's
	// replicas.
	SentTemplateID int
	// Port restricts an ingress query to one port (-1 = any).
	Port int

	Filters []CompiledPred

	Kind ntapi.QueryKind
	// Keys are the reduce/distinct grouping fields (default 5-tuple).
	Keys []asic.Field
	// ValueField is the aggregated field for sum/max/min; FieldNone
	// counts packets.
	ValueField asic.Field
	Func       ntapi.AggFunc
	Post       []AggPred

	// Counter-table sizing.
	DigestBits int
	ArraySize  int

	// Hash configuration shared between compiler (false-positive
	// precomputation) and runtime (cuckoo arrays): reflected CRC-32
	// polynomials for array 1, array 2, and the stored digest.
	PolyArray1, PolyArray2, PolyDigest uint32

	// ExactKeys are the precomputed colliding key tuples that need
	// exact-match entries to guarantee zero false positives (§5.2).
	// Each entry holds one value per Keys field. Read-only: plans of one
	// program with the same key space share the list.
	ExactKeys [][]uint64

	// HeaderSpaceSize is the number of distinct key tuples the compiler
	// extracted for this query.
	HeaderSpaceSize int
	// HeaderSpaceTruncated reports that enumeration stopped at
	// Options.MaxHeaderSpace with tuples left over: no ExactKeys were
	// computed and the query is not false-positive-free.
	HeaderSpaceTruncated bool

	// TriggerTemplateID is the template fired per matching record
	// (stateless connections); 0 = none.
	TriggerTemplateID int
	// RecordFields are the packet fields captured into trigger records.
	RecordFields []asic.Field
}

// Program is a fully compiled task.
type Program struct {
	Task      *ntapi.Task
	Templates []*Template
	Queries   []*QueryPlan

	// P4 is the generated data-plane program (for Table 5's LoC count
	// and Table 7's resource estimate).
	P4        *p4ir.Program
	Resources p4ir.Resources
}

// QueryByID returns the query plan with the given 1-based ID, or nil.
func (p *Program) QueryByID(id int) *QueryPlan {
	for _, q := range p.Queries {
		if q.ID == id {
			return q
		}
	}
	return nil
}
