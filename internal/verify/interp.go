package verify

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"github.com/hypertester/hypertester/internal/p4ir"
)

// This file is the execution half of the differential oracle. Interp
// walks the p4ir control flow, matches tables by linear scan and runs the
// deterministic op semantics over a Machine, the field store. The witness
// packets Analyze extracts are replayed over two stores:
//
//   - MapMachine below, a flat field map that models the asic codec's
//     width and masking quirks independently;
//   - the compiled plan's store (compiler.ReplayPlan), a real frame parsed
//     into an asic.PHV and read through the asic field codec.
//
// The walk is shared, so what the differential checks is the packet codec:
// serialization, parsing, header validity, field widths and masking.

// recircCap bounds the recirculation passes a replay runs; the
// verifier's termination check keeps real programs from depending on it.
const recircCap = 3

// Machine abstracts the PHV: the compiled plan's store wraps an asic.PHV,
// the naive one is a field map.
type Machine interface {
	Get(field string) uint64
	Set(field string, v uint64)
}

// Outcome is everything observable about one replay: final field values,
// the table decisions in order, SALU activity, digests, and the packet's
// fate. Two replays agree iff their Canonical() strings are equal.
type Outcome struct {
	Fields  map[string]uint64 `json:"fields"`
	Tables  []string          `json:"tables"` // "table:action" or "table:miss"
	SALU    []string          `json:"salu"`   // "register:program:cell0"
	Digests []string          `json:"digests"`
	Recircs int               `json:"recircs"`
	Dropped bool              `json:"dropped"`
}

// Canonical renders the outcome deterministically for diffing.
//
//htlint:ignore deadexport the witness differential's transcript of the naive reference
func (o *Outcome) Canonical() string {
	var b strings.Builder
	names := make([]string, 0, len(o.Fields))
	for n := range o.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, o.Fields[n])
	}
	fmt.Fprintf(&b, "tables=%s\n", strings.Join(o.Tables, ";"))
	fmt.Fprintf(&b, "salu=%s\n", strings.Join(o.SALU, ";"))
	fmt.Fprintf(&b, "digests=%s\n", strings.Join(o.Digests, ";"))
	fmt.Fprintf(&b, "recircs=%d dropped=%v\n", o.Recircs, o.Dropped)
	return b.String()
}

// execState is the per-replay mutable state outside the PHV: register
// arrays (cell 0 carries the deterministic semantics), the RNG sequence
// counter, and the pending-recirculation flag.
type execState struct {
	Regs      map[string][]uint64
	Seq       uint64
	RecircReq bool
	Out       *Outcome
}

// newExecState returns a fresh state with an empty outcome.
func newExecState() *execState {
	return &execState{Regs: map[string][]uint64{}, Out: &Outcome{Fields: map[string]uint64{}}}
}

func (st *execState) reg(name string) []uint64 {
	r, ok := st.Regs[name]
	if !ok {
		r = make([]uint64, 1)
		st.Regs[name] = r
	}
	return r
}

// evalCondString evaluates a gateway condition concretely. Conditions
// outside the generator grammar evaluate to false.
func evalCondString(m Machine, s string) bool {
	cond, ok := p4ir.ParseCond(s)
	if !ok {
		return false
	}
	for _, a := range cond.Atoms {
		if !a.Op.Eval(m.Get(a.Field), a.Value) {
			return false
		}
	}
	return true
}

func fnvStr(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func fnvU64(seed string, vals ...uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(seed))
	var b [8]byte
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// srcValue resolves an op's Src operand: a numeric constant, a PHV field,
// or — for opaque expressions (list lookups, record slots) — a
// deterministic digest of the expression text.
func srcValue(m Machine, op p4ir.Op) uint64 {
	if c, err := strconv.ParseUint(op.Src, 0, 64); err == nil {
		return c
	}
	if srcField(op.Src) {
		return m.Get(op.Src)
	}
	return fnvStr("src", op.Src)
}

func opMask(op p4ir.Op) uint64 {
	if op.Bits > 0 {
		return maxVal(op.Bits)
	}
	return ^uint64(0)
}

// execOp runs one primitive with deterministic semantics. RMW programs the
// generator emits as "+N"/"+N wrap M" increment cell 0 (wrapping to 0 past
// M); every other SALU program bumps the cell and is recorded opaquely.
func execOp(m Machine, st *execState, op p4ir.Op) {
	switch op.Kind {
	case p4ir.OpModifyField:
		m.Set(op.Dst, srcValue(m, op)&opMask(op))
	case p4ir.OpAddToField:
		m.Set(op.Dst, (m.Get(op.Dst)+srcValue(m, op))&opMask(op))
	case p4ir.OpRegisterRead:
		r := st.reg(op.Dst)
		st.Out.SALU = append(st.Out.SALU, fmt.Sprintf("%s:read:%d", op.Dst, r[0]))
	case p4ir.OpRegisterWrite:
		r := st.reg(op.Dst)
		r[0] = srcValue(m, op) & opMask(op)
		st.Out.SALU = append(st.Out.SALU, fmt.Sprintf("%s:write:%d", op.Dst, r[0]))
	case p4ir.OpRegisterRMW:
		r := st.reg(op.Dst)
		if inc, wrap, ok := parseIncrement(op.Src); ok {
			r[0] += inc
			if wrap > 0 && r[0] > wrap {
				r[0] = 0
			}
		} else {
			r[0]++
		}
		st.Out.SALU = append(st.Out.SALU, fmt.Sprintf("%s:%s:%d", op.Dst, op.Src, r[0]))
	case p4ir.OpHash:
		five := []uint64{
			m.Get("ipv4.sip"), m.Get("ipv4.dip"), m.Get("ipv4.proto"),
			m.Get("l4.sport"), m.Get("l4.dport"),
		}
		m.Set(op.Dst, fnvU64("hash:"+op.Src, five...)&opMask(op))
	case p4ir.OpRandom:
		st.Seq++
		m.Set(op.Dst, fnvU64("rand:"+op.Dst, st.Seq)&opMask(op))
	case p4ir.OpGenerateDigest:
		st.Out.Digests = append(st.Out.Digests, op.Dst)
	case p4ir.OpRecirculate:
		st.RecircReq = true
		st.Out.Recircs++
	case p4ir.OpMulticast:
		m.Set(op.Dst, srcValue(m, op)&opMask(op))
	case p4ir.OpDropPacket:
		st.Out.Dropped = true
	case p4ir.OpNoOp:
	}
}

// runAction executes an action's ops in order.
func runAction(m Machine, st *execState, a *p4ir.ActionDef) {
	for _, op := range a.Ops {
		execOp(m, st, op)
	}
}

// matchEntries finds the matching entry with the IR-level semantics the
// asic tables share: exact first-match, ternary and range by priority
// (higher wins, insertion order breaks ties).
func matchEntries(t *p4ir.TableDef, entries []p4ir.Entry, keys []uint64) (int, bool) {
	best, bestPri := -1, 0
	for i := range entries {
		e := &entries[i]
		switch t.Match {
		case p4ir.MatchExact:
			ok := len(e.Values) == len(keys)
			for k := 0; ok && k < len(keys); k++ {
				ok = keys[k] == e.Values[k]
			}
			if ok {
				return i, true
			}
		case p4ir.MatchTernary:
			ok := len(e.Values) == len(keys)
			for k := 0; ok && k < len(keys); k++ {
				mask := ^uint64(0)
				if e.Masks != nil {
					mask = e.Masks[k]
				}
				ok = keys[k]&mask == e.Values[k]&mask
			}
			if ok && (best < 0 || e.Priority > bestPri) {
				best, bestPri = i, e.Priority
			}
		case p4ir.MatchRange:
			if len(keys) == 1 && keys[0] >= e.Lo && keys[0] <= e.Hi &&
				(best < 0 || e.Priority > bestPri) {
				best, bestPri = i, e.Priority
			}
		}
	}
	if best >= 0 {
		return best, true
	}
	return 0, false
}

// outcomeFields is the deterministic field set a replay reports: every
// name the width table knows, minus the l4 aliases (already captured via
// the transport header they resolve to).
func outcomeFields() []string {
	names := make([]string, 0, len(fieldWidths))
	for n := range fieldWidths {
		if n == "l4.sport" || n == "l4.dport" {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WidthMask returns the all-ones mask of a named field's width, for field
// stores outside this package that mirror the PHV masking rules.
func WidthMask(name string) uint64 { return maxVal(fieldWidth(name, 0)) }

// captureFields reads the outcome field set off a machine.
func captureFields(m Machine) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range outcomeFields() {
		out[n] = m.Get(n)
	}
	return out
}

// NormalizeWitness makes the witness self-consistent for replay: the
// select fields implied by its header stack are pinned to the canonical
// values (a packet cannot be serialized otherwise), and fields of headers
// the packet does not carry are dropped.
func NormalizeWitness(wit *Witness) {
	has := map[string]bool{}
	for _, h := range wit.Headers {
		has[h] = true
	}
	if wit.Fields == nil {
		wit.Fields = map[string]uint64{}
	}
	if has["ipv4"] {
		wit.Fields["eth.type"] = 0x0800
	}
	switch {
	case has["tcp"]:
		wit.Fields["ipv4.proto"] = 6
	case has["udp"]:
		wit.Fields["ipv4.proto"] = 17
	case has["icmp"]:
		wit.Fields["ipv4.proto"] = 1
	}
	for name := range wit.Fields {
		if hdr := headerOf(name); hdr != "" && hdr != "l4" && !has[hdr] {
			delete(wit.Fields, name)
		}
	}
}

// MapMachine is the reference field store: a flat field map plus derived
// header validity. It mirrors the asic field codec's quirks independently:
// width masking per field, tcp.flag's 6 flag bits, VLAN writes dropped
// unless the header is present, read-only intrinsics never written.
type MapMachine struct {
	Vals  map[string]uint64
	Valid map[string]bool
}

// NewMapMachine seeds the machine from a (normalized) witness, deriving
// header validity by re-parsing the witness's own select fields — not by
// trusting wit.Headers — so a verifier bug that emits an inconsistent
// witness surfaces as a differential mismatch.
func NewMapMachine(wit Witness) *MapMachine {
	m := &MapMachine{Vals: map[string]uint64{}, Valid: map[string]bool{}}
	for k, v := range wit.Fields {
		m.Vals[k] = v & maxVal(fieldWidth(k, 0))
	}
	m.Valid["ethernet"] = true
	switch m.Vals["eth.type"] {
	case 0x0800:
		m.Valid["ipv4"] = true
	case 0x8100:
		m.Valid["vlan"] = true
	}
	if m.Valid["ipv4"] {
		switch m.Vals["ipv4.proto"] {
		case 6:
			m.Valid["tcp"] = true
		case 17:
			m.Valid["udp"] = true
		case 1:
			m.Valid["icmp"] = true
		}
	}
	m.Vals["meta.one"] = 1
	return m
}

// resolve routes the l4 aliases the way the asic codec does: TCP when the
// packet carries it, UDP otherwise.
func (m *MapMachine) resolve(name string) string {
	if name == "l4.sport" || name == "l4.dport" {
		if m.Valid["tcp"] {
			return "tcp" + name[2:]
		}
		return "udp" + name[2:]
	}
	return name
}

// Get reads a field; untouched fields of unparsed headers read 0, exactly
// like the asic's zeroed header structs.
func (m *MapMachine) Get(name string) uint64 {
	return m.Vals[m.resolve(name)]
}

// Set writes a field with the asic codec's masking rules.
func (m *MapMachine) Set(name string, v uint64) {
	name = m.resolve(name)
	switch name {
	case "meta.in_port", "pkt_len", "meta.ingress_ts", "meta.template_id":
		return // read-only intrinsics
	case "vlan.id", "vlan.pcp":
		if !m.Valid["vlan"] {
			return
		}
	case "tcp.flag":
		v &= 0x3f
	}
	m.Vals[name] = v & maxVal(fieldWidth(name, 0))
}

// Interp is the IR interpreter: it walks the control flow directly,
// matching tables by linear scan.
type Interp struct {
	Prog *p4ir.Program
	// Entries overrides/extends per-table entries (synthetic entries for
	// runtime-populated tables). A table absent here uses its IR entries.
	Entries map[string][]p4ir.Entry
}

// Run replays one witness over a field map and returns the outcome.
//
//htlint:ignore deadexport the naive reference the witness differential replays against the compiled plan
func (in *Interp) Run(wit Witness) *Outcome { return in.Exec(NewMapMachine(wit)) }

// Exec runs the program over m, recirculating up to recircCap times, and
// returns the outcome.
func (in *Interp) Exec(m Machine) *Outcome {
	st := newExecState()
	for pass := 0; ; pass++ {
		st.RecircReq = false
		in.walk(m, st, in.Prog.Ingress)
		in.walk(m, st, in.Prog.Egress)
		if !st.RecircReq || pass >= recircCap {
			break
		}
	}
	st.Out.Fields = captureFields(m)
	return st.Out
}

func (in *Interp) walk(m Machine, st *execState, stmts []p4ir.ControlStmt) {
	for i := range stmts {
		s := &stmts[i]
		if s.Apply != "" {
			in.applyTable(m, st, s.Apply)
			continue
		}
		if evalCondString(m, s.If) {
			in.walk(m, st, s.Then)
		} else {
			in.walk(m, st, s.Else)
		}
	}
}

func (in *Interp) applyTable(m Machine, st *execState, name string) {
	var t *p4ir.TableDef
	for _, cand := range in.Prog.Tables {
		if cand.Name == name {
			t = cand
			break
		}
	}
	if t == nil {
		return
	}
	entries := t.Entries
	if over, ok := in.Entries[name]; ok {
		entries = over
	}
	keys := make([]uint64, len(t.Keys))
	for i, kd := range t.Keys {
		keys[i] = m.Get(kd.Field)
	}
	idx, hit := matchEntries(t, entries, keys)
	if !hit {
		st.Out.Tables = append(st.Out.Tables, name+":miss")
		return
	}
	act := entries[idx].ActionName(t)
	st.Out.Tables = append(st.Out.Tables, name+":"+act)
	for _, a := range in.Prog.Actions {
		if a.Name == act {
			runAction(m, st, a)
			break
		}
	}
}
