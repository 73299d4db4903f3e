package verify

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/p4ir"
)

// oneEntryTable builds a meta.one-gated table running act, the generator's
// always-on shape.
func oneEntryTable(p *p4ir.Program, name string, pipe p4ir.PipelineKind, act string) {
	p.AddTable(&p4ir.TableDef{
		Name: name, Pipeline: pipe, Match: p4ir.MatchExact,
		Keys:    []p4ir.KeyDef{{Field: "meta.one", Bits: 1}},
		Actions: []string{act}, Size: 1,
		Entries: []p4ir.Entry{{Values: []uint64{1}}},
	})
}

func hasDiag(r *Report, check string, frag string) bool {
	for _, d := range r.Diagnostics {
		if d.Check == check && strings.Contains(d.Message+d.Site, frag) {
			return true
		}
	}
	return false
}

func countDiag(r *Report, check string) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Check == check {
			n++
		}
	}
	return n
}

// Negative 1: an action writes a TCP field on a program whose packets can
// be UDP-only — the path through the udp parse branch reaches the write.
func TestInvalidHeaderWrite(t *testing.T) {
	p := &p4ir.Program{
		Name:    "invwrite",
		Headers: []string{"ethernet", "ipv4", "udp"},
		Parser: []p4ir.ParserEdge{
			{From: "ethernet", To: "ipv4"}, {From: "ipv4", To: "udp"},
		},
	}
	p.AddAction(&p4ir.ActionDef{Name: "mark", Ops: []p4ir.Op{
		{Kind: p4ir.OpModifyField, Dst: "tcp.sport", Src: "80", Bits: 16},
	}})
	oneEntryTable(p, "marker", p4ir.PipeIngress, "mark")
	p.Ingress = []p4ir.ControlStmt{{
		If:   "ipv4.proto == 17",
		Then: []p4ir.ControlStmt{{Apply: "marker"}},
	}}
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckInvalidAccess, "tcp.sport") {
		t.Fatalf("missing invalid-header diagnostic; got %v", r.Diagnostics)
	}
	if len(r.Errors()) == 0 {
		t.Fatal("invalid-header access must be error severity")
	}
}

// The same write is safe when the gateway proves the TCP header present.
func TestValidHeaderWriteClean(t *testing.T) {
	p := &p4ir.Program{
		Name:    "okwrite",
		Headers: []string{"ethernet", "ipv4", "tcp"},
		Parser: []p4ir.ParserEdge{
			{From: "ethernet", To: "ipv4"}, {From: "ipv4", To: "tcp"},
		},
	}
	p.AddAction(&p4ir.ActionDef{Name: "mark", Ops: []p4ir.Op{
		{Kind: p4ir.OpModifyField, Dst: "tcp.sport", Src: "80", Bits: 16},
	}})
	oneEntryTable(p, "marker", p4ir.PipeIngress, "mark")
	p.Ingress = []p4ir.ControlStmt{{
		If:   "ipv4.proto == 6",
		Then: []p4ir.ControlStmt{{Apply: "marker"}},
	}}
	r := Analyze(p, Options{})
	if n := countDiag(r, CheckInvalidAccess); n != 0 {
		t.Fatalf("false positive: %v", r.Diagnostics)
	}
}

// Negative 2: duplicate exact entries — the second is shadowed and dead.
func TestShadowedAndDeadEntries(t *testing.T) {
	p := &p4ir.Program{Name: "shadow", Headers: []string{"ethernet"}}
	p.AddAction(&p4ir.ActionDef{Name: "a", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	p.AddAction(&p4ir.ActionDef{Name: "b", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	p.AddTable(&p4ir.TableDef{
		Name: "dup", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchExact,
		Keys:    []p4ir.KeyDef{{Field: "meta.sel", Bits: 8}},
		Actions: []string{"a", "b"}, Size: 4,
		Entries: []p4ir.Entry{
			{Values: []uint64{5}, Action: "a"},
			{Values: []uint64{5}, Action: "b"}, // unreachable duplicate
			{Values: []uint64{9}, Action: "a"},
		},
	})
	p.Ingress = []p4ir.ControlStmt{{Apply: "dup"}}
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckShadowed, "entry 1") {
		t.Fatalf("missing shadowed-entry diagnostic; got %v", r.Diagnostics)
	}
	if !hasDiag(r, CheckDeadEntry, "entry 1") {
		t.Fatalf("missing dead-entry diagnostic; got %v", r.Diagnostics)
	}
	if hasDiag(r, CheckDeadEntry, "entry 2") {
		t.Fatalf("entry 2 is live; got %v", r.Diagnostics)
	}
}

// Ternary cover: a higher-priority wildcard entry shadows a specific one.
func TestTernaryShadow(t *testing.T) {
	p := &p4ir.Program{Name: "tshadow", Headers: []string{"ethernet"}}
	p.AddAction(&p4ir.ActionDef{Name: "a", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	p.AddTable(&p4ir.TableDef{
		Name: "tern", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchTernary,
		Keys:    []p4ir.KeyDef{{Field: "meta.sel", Bits: 8}},
		Actions: []string{"a"}, Size: 4,
		Entries: []p4ir.Entry{
			{Values: []uint64{0}, Masks: []uint64{0}, Priority: 10},   // catch-all
			{Values: []uint64{7}, Masks: []uint64{0xFF}, Priority: 1}, // shadowed
		},
	})
	p.Ingress = []p4ir.ControlStmt{{Apply: "tern"}}
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckShadowed, "entry 1") {
		t.Fatalf("missing ternary shadow; got %v", r.Diagnostics)
	}
}

// Negative 3: contradictory nested gateways make the inner table
// unreachable and the inner then-branch infeasible.
func TestUnreachableTable(t *testing.T) {
	p := &p4ir.Program{Name: "unreach", Headers: []string{"ethernet"}}
	p.AddAction(&p4ir.ActionDef{Name: "a", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	oneEntryTable(p, "inner", p4ir.PipeIngress, "a")
	p.Ingress = []p4ir.ControlStmt{{
		If: "meta.template_id == 1",
		Then: []p4ir.ControlStmt{{
			If:   "meta.template_id == 2",
			Then: []p4ir.ControlStmt{{Apply: "inner"}},
		}},
	}}
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckUnreachable, "inner") {
		t.Fatalf("missing unreachable-table diagnostic; got %v", r.Diagnostics)
	}
	if !hasDiag(r, CheckGateway, "meta.template_id == 2") {
		t.Fatalf("missing infeasible-gateway diagnostic; got %v", r.Diagnostics)
	}
}

// Negative 4: two tables touch one register under overlapping guards; the
// joint path meta.x in [2,5] fires both SALUs in one pass.
func TestSALUConflictOnJointPath(t *testing.T) {
	p := salupair("meta.x >= 2", "meta.x <= 5")
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckSALU, "register r is accessed by both t1 and t2") {
		t.Fatalf("missing SALU conflict; got %v", r.Diagnostics)
	}
	if len(r.Errors()) == 0 {
		t.Fatal("conflict must be error severity")
	}
}

// Numerically disjoint guards the syntactic heuristic cannot prove apart:
// the path walker shows no joint path exists, so no conflict.
func TestSALUDisjointGuardsClean(t *testing.T) {
	p := salupair("meta.x < 2", "meta.x > 5")
	r := Analyze(p, Options{})
	if countDiag(r, CheckSALU) != 0 {
		t.Fatalf("false SALU diagnostic: %v", r.Diagnostics)
	}
}

func salupair(g1, g2 string) *p4ir.Program {
	p := &p4ir.Program{Name: "salu", Headers: []string{"ethernet"}}
	p.AddRegister(&p4ir.RegisterDef{Name: "r", Width: 32, Size: 1})
	p.AddAction(&p4ir.ActionDef{Name: "a1", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRMW, Dst: "r", Src: "prog-one", Bits: 32},
	}})
	p.AddAction(&p4ir.ActionDef{Name: "a2", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRMW, Dst: "r", Src: "prog-two", Bits: 32},
	}})
	oneEntryTable(p, "t1", p4ir.PipeIngress, "a1")
	oneEntryTable(p, "t2", p4ir.PipeIngress, "a2")
	p.Ingress = []p4ir.ControlStmt{
		{If: g1, Then: []p4ir.ControlStmt{{Apply: "t1"}}},
		{If: g2, Then: []p4ir.ControlStmt{{Apply: "t2"}}},
	}
	return p
}

// The same register touched in ingress and egress is two pipeline passes,
// not a conflict.
func TestSALUAcrossPipelinesClean(t *testing.T) {
	p := &p4ir.Program{Name: "xpipe", Headers: []string{"ethernet"}}
	p.AddRegister(&p4ir.RegisterDef{Name: "r", Width: 32, Size: 1})
	p.AddAction(&p4ir.ActionDef{Name: "a1", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRMW, Dst: "r", Src: "push", Bits: 32},
	}})
	p.AddAction(&p4ir.ActionDef{Name: "a2", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRMW, Dst: "r", Src: "pop", Bits: 32},
	}})
	oneEntryTable(p, "t1", p4ir.PipeIngress, "a1")
	oneEntryTable(p, "t2", p4ir.PipeEgress, "a2")
	p.Ingress = []p4ir.ControlStmt{{Apply: "t1"}}
	p.Egress = []p4ir.ControlStmt{{Apply: "t2"}}
	r := Analyze(p, Options{})
	if countDiag(r, CheckSALU) != 0 {
		t.Fatalf("cross-pipeline access misflagged: %v", r.Diagnostics)
	}
}

// One action touching a register twice fires its SALU twice on every pass
// that runs the action, with no second table involved.
func TestSALUSameTableDoubleTouch(t *testing.T) {
	p := &p4ir.Program{Name: "dbl", Headers: []string{"ethernet"}}
	p.AddRegister(&p4ir.RegisterDef{Name: "r", Width: 32, Size: 1})
	p.AddAction(&p4ir.ActionDef{Name: "twice", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRead, Dst: "r", Src: "meta.v", Bits: 32},
		{Kind: p4ir.OpRegisterWrite, Dst: "r", Src: "meta.v", Bits: 32},
	}})
	oneEntryTable(p, "t1", p4ir.PipeIngress, "twice")
	p.Ingress = []p4ir.ControlStmt{{Apply: "t1"}}
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckSALU, "action twice accesses register r twice in one pass") {
		t.Fatalf("missing same-table double-touch diagnostic; got %v", r.Diagnostics)
	}
	if len(r.Errors()) == 0 {
		t.Fatal("double touch must be error severity")
	}
}

// Negative 5: recirculation with no strictly-increasing loop state has no
// termination proof.
func TestRecircWithoutLoopState(t *testing.T) {
	p := recircProg("push")
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckRecirc, "termination") {
		t.Fatalf("missing recirc diagnostic; got %v", r.Diagnostics)
	}
}

// The accelerator shape — "+1" before recirculating — proves termination.
func TestRecircWithIncrementClean(t *testing.T) {
	p := recircProg("+1")
	r := Analyze(p, Options{})
	if countDiag(r, CheckRecirc) != 0 {
		t.Fatalf("false recirc diagnostic: %v", r.Diagnostics)
	}
}

// A "+1" counter proves progress, not an exit: with no gateway on the path
// (none at all, the literal `true`, or one that closed before the apply)
// every packet recirculates forever.
func TestRecircUnguarded(t *testing.T) {
	apply := []p4ir.ControlStmt{{Apply: "looper"}}
	for name, ingress := range map[string][]p4ir.ControlStmt{
		"bare":          apply,
		"true":          {{If: "true", Then: apply}},
		"after-gateway": {{If: "meta.template_id != 0"}, {Apply: "looper"}},
	} {
		p := recircProg("+1")
		p.Ingress = ingress
		r := Analyze(p, Options{})
		if !hasDiag(r, CheckRecirc, "recirculates unconditionally") {
			t.Errorf("%s: missing unguarded-recirculation diagnostic; got %v", name, r.Diagnostics)
		}
		if hasDiag(r, CheckRecirc, "termination") {
			t.Errorf("%s: the +1 counter is loop state; got %v", name, r.Diagnostics)
		}
	}
	// The else side of a real gateway is guarded too.
	p := recircProg("+1")
	p.Ingress = []p4ir.ControlStmt{{If: "meta.template_id == 0", Else: apply}}
	if r := Analyze(p, Options{}); countDiag(r, CheckRecirc) != 0 {
		t.Errorf("else-guarded recirculation misflagged: %v", r.Diagnostics)
	}
}

func recircProg(salu string) *p4ir.Program {
	p := &p4ir.Program{Name: "recirc", Headers: []string{"ethernet"}}
	p.AddRegister(&p4ir.RegisterDef{Name: "loop", Width: 32, Size: 1})
	p.AddAction(&p4ir.ActionDef{Name: "again", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRMW, Dst: "loop", Src: salu, Bits: 32},
		{Kind: p4ir.OpRecirculate, Dst: "recirc_port"},
	}})
	oneEntryTable(p, "looper", p4ir.PipeIngress, "again")
	p.Ingress = []p4ir.ControlStmt{{
		If:   "meta.template_id != 0",
		Then: []p4ir.ControlStmt{{Apply: "looper"}},
	}}
	return p
}

// Negative 6: a gateway comparing an 8-bit field against 300 can never
// take its then-branch.
func TestInfeasibleGateway(t *testing.T) {
	p := &p4ir.Program{
		Name:    "gw",
		Headers: []string{"ethernet", "ipv4"},
		Parser:  []p4ir.ParserEdge{{From: "ethernet", To: "ipv4"}},
	}
	p.AddAction(&p4ir.ActionDef{Name: "a", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	oneEntryTable(p, "t", p4ir.PipeIngress, "a")
	p.Ingress = []p4ir.ControlStmt{{
		If:   "ipv4.ttl > 300",
		Then: []p4ir.ControlStmt{{Apply: "t"}},
	}}
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckGateway, "ipv4.ttl > 300") {
		t.Fatalf("missing infeasible-gateway diagnostic; got %v", r.Diagnostics)
	}
	if !hasDiag(r, CheckUnreachable, "t") {
		t.Fatalf("table under an infeasible gateway is unreachable; got %v", r.Diagnostics)
	}
}

// Template invariants kill the false positive the path-insensitive view
// would report: the editor writes tcp.sport under meta.template_id == 1,
// and the invariant ties template 1 to TCP packets.
func TestInvariantsSuppressFalsePositive(t *testing.T) {
	p := &p4ir.Program{
		Name:    "inv",
		Headers: []string{"ethernet", "ipv4", "tcp", "udp"},
		Parser: []p4ir.ParserEdge{
			{From: "ethernet", To: "ipv4"},
			{From: "ipv4", To: "tcp"}, {From: "ipv4", To: "udp"},
		},
	}
	p.AddAction(&p4ir.ActionDef{Name: "edit", Ops: []p4ir.Op{
		{Kind: p4ir.OpModifyField, Dst: "tcp.sport", Src: "1234", Bits: 16},
	}})
	p.AddTable(&p4ir.TableDef{
		Name: "editor", Pipeline: p4ir.PipeEgress, Match: p4ir.MatchExact,
		Keys:    []p4ir.KeyDef{{Field: "meta.template_id", Bits: 16}},
		Actions: []string{"edit"}, Size: 1,
		Entries: []p4ir.Entry{{Values: []uint64{1}}},
	})
	p.Egress = []p4ir.ControlStmt{{
		If:   "meta.template_id == 1 and eg_intr_md.rid != 0",
		Then: []p4ir.ControlStmt{{Apply: "editor"}},
	}}
	inv := []Implication{{
		If: p4ir.Atom{Field: "meta.template_id", Op: p4ir.CmpEq, Value: 1},
		Then: []p4ir.Atom{
			{Field: "eth.type", Op: p4ir.CmpEq, Value: 0x0800},
			{Field: "ipv4.proto", Op: p4ir.CmpEq, Value: 6},
		},
	}}

	// Without the invariant the UDP parse path reaches the editor.
	r := Analyze(p, Options{})
	if !hasDiag(r, CheckInvalidAccess, "tcp.sport") {
		t.Fatalf("path-insensitive run should flag the write; got %v", r.Diagnostics)
	}
	// With it, only TCP packets carry template 1: clean.
	r = Analyze(p, Options{Invariants: inv})
	if n := countDiag(r, CheckInvalidAccess); n != 0 {
		t.Fatalf("invariant did not suppress the false positive: %v", r.Diagnostics)
	}
}

// Witness extraction: a feasible leaf through the tcp.sport == 80 filter
// yields a concrete TCP packet with that port.
func TestWitnessExtraction(t *testing.T) {
	p := &p4ir.Program{
		Name:    "wit",
		Headers: []string{"ethernet", "ipv4", "tcp"},
		Parser: []p4ir.ParserEdge{
			{From: "ethernet", To: "ipv4"}, {From: "ipv4", To: "tcp"},
		},
	}
	p.AddAction(&p4ir.ActionDef{Name: "count", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRMW, Dst: "c", Src: "+1", Bits: 64},
	}})
	p.AddRegister(&p4ir.RegisterDef{Name: "c", Width: 64, Size: 1})
	oneEntryTable(p, "capture", p4ir.PipeIngress, "count")
	p.Ingress = []p4ir.ControlStmt{{
		If:   "tcp.sport == 80",
		Then: []p4ir.ControlStmt{{Apply: "capture"}},
	}}
	r := Analyze(p, Options{Witnesses: true})
	if len(r.Witnesses) == 0 {
		t.Fatal("no witnesses extracted")
	}
	found := false
	for _, w := range r.Witnesses {
		hasTCP := false
		for _, h := range w.Headers {
			hasTCP = hasTCP || h == "tcp"
		}
		if hasTCP && w.Fields["tcp.sport"] == 80 {
			found = true
		}
		// Every witness must be internally consistent with its headers.
		for name := range w.Fields {
			if hdr := headerOf(name); hdr != "" && hdr != "l4" {
				ok := false
				for _, h := range w.Headers {
					ok = ok || h == hdr
				}
				if !ok {
					t.Fatalf("witness field %s of header %s not in stack %v", name, hdr, w.Headers)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no witness drives the tcp.sport == 80 path; got %+v", r.Witnesses)
	}
}

func TestParserCycleDetected(t *testing.T) {
	p := &p4ir.Program{
		Name: "cyc",
		Parser: []p4ir.ParserEdge{
			{From: "a", To: "b"}, {From: "b", To: "a"},
		},
		Headers: []string{"a", "b"},
	}
	r := Analyze(p, Options{})
	if countDiag(r, CheckParser) == 0 {
		t.Fatalf("missing parser-cycle diagnostic; got %v", r.Diagnostics)
	}
}

func TestMaxPathsTruncates(t *testing.T) {
	// 20 stacked two-way gateways would be 2^20 paths.
	p := &p4ir.Program{Name: "boom", Headers: []string{"ethernet"}}
	p.AddAction(&p4ir.ActionDef{Name: "a", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	oneEntryTable(p, "t", p4ir.PipeIngress, "a")
	stmt := []p4ir.ControlStmt{{Apply: "t"}}
	for i := 0; i < 20; i++ {
		stmt = []p4ir.ControlStmt{{
			If:   fmt.Sprintf("meta.f%d != 0", i),
			Then: stmt,
			Else: stmt,
		}}
	}
	p.Ingress = stmt
	r := Analyze(p, Options{MaxPaths: 100})
	if !r.Truncated {
		t.Fatal("walk should truncate at MaxPaths")
	}
	if r.Paths > 100 {
		t.Fatalf("enumerated %d paths past the cap", r.Paths)
	}
	// Reachability must stay silent on a truncated walk.
	if countDiag(r, CheckUnreachable)+countDiag(r, CheckGateway) != 0 {
		t.Fatalf("truncated walk emitted reachability diagnostics: %v", r.Diagnostics)
	}
}
