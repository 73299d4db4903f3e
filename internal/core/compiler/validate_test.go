package compiler

import (
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/verify"
)

// gate runs a hand-built plan through the compile gate exactly as Compile
// does: chip totals, stage placement, then the one symbolic verdict.
func gate(p *p4ir.Program) error {
	return validateProgram(&Program{P4: p, Resources: p4ir.Estimate(p)}, Options{})
}

// rmwProg builds a minimal program with n tables whose actions each RMW a
// register, applied sequentially (reg name shared when shared is true).
func rmwProg(n int, shared bool) *p4ir.Program {
	p := &p4ir.Program{Name: "t", Headers: []string{"ethernet", "ipv4"}}
	for i := 0; i < n; i++ {
		reg := "reg_shared"
		if !shared {
			reg = "reg_" + string(rune('a'+i))
		}
		p.AddRegisterOnce(&p4ir.RegisterDef{Name: reg, Width: 32, Size: 1024})
		a := p.AddAction(&p4ir.ActionDef{
			Name: "act_" + string(rune('a'+i)),
			Ops:  []p4ir.Op{{Kind: p4ir.OpRegisterRMW, Dst: reg, Src: "1", Bits: 32}},
		})
		t := p.AddTable(&p4ir.TableDef{
			Name:     "tbl_" + string(rune('a'+i)),
			Pipeline: p4ir.PipeIngress,
			Match:    p4ir.MatchExact,
			Keys:     []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
			Actions:  []string{a.Name},
			Size:     16,
		})
		p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: t.Name})
	}
	return p
}

func TestVerifyRejectsDoubleSALUAccess(t *testing.T) {
	// Two sequentially applied tables RMW the same register: one packet
	// pass would fire the register's SALU twice.
	err := gate(rmwProg(2, true))
	if err == nil || !strings.Contains(err.Error(), "at most once per packet") {
		t.Fatalf("want SALU conflict, got %v", err)
	}

	// Distinct registers are fine.
	if err := gate(rmwProg(2, false)); err != nil {
		t.Fatalf("distinct registers must verify: %v", err)
	}
}

func TestVerifyRejectsDoubleSALUAccessInOneAction(t *testing.T) {
	p := &p4ir.Program{Name: "dbl", Headers: []string{"ethernet", "ipv4"}}
	p.AddRegister(&p4ir.RegisterDef{Name: "cnt", Width: 32, Size: 64})
	a := p.AddAction(&p4ir.ActionDef{Name: "twice", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRead, Dst: "cnt", Src: "meta.v", Bits: 32},
		{Kind: p4ir.OpRegisterWrite, Dst: "cnt", Src: "meta.v", Bits: 32},
	}})
	tbl := p.AddTable(&p4ir.TableDef{
		Name: "t", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchExact,
		Keys:    []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
		Actions: []string{a.Name}, Size: 4,
	})
	p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: tbl.Name})
	err := gate(p)
	if err == nil || !strings.Contains(err.Error(), "twice in one pass") {
		t.Fatalf("want same-action double access, got %v", err)
	}
}

func TestVerifyAcceptsExclusiveSALUBranches(t *testing.T) {
	// Same register behind provably exclusive guards is one access per
	// packet: equality on the same field with different constants, and
	// Then vs Else of one condition.
	base := rmwProg(2, true)
	base.Ingress = []p4ir.ControlStmt{
		{If: "meta.template_id == 1", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.template_id == 2", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	if err := gate(base); err != nil {
		t.Fatalf("exclusive equality guards must verify: %v", err)
	}

	thenElse := rmwProg(2, true)
	thenElse.Ingress = []p4ir.ControlStmt{{
		If:   "meta.is_probe == 1",
		Then: []p4ir.ControlStmt{{Apply: "tbl_a"}},
		Else: []p4ir.ControlStmt{{Apply: "tbl_b"}},
	}}
	if err := gate(thenElse); err != nil {
		t.Fatalf("then/else branches must verify: %v", err)
	}

	// Same constant on both guards is NOT exclusive.
	same := rmwProg(2, true)
	same.Ingress = []p4ir.ControlStmt{
		{If: "meta.template_id == 1", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.template_id == 1", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	err := gate(same)
	if err == nil || !strings.Contains(err.Error(), "at most once per packet") {
		t.Fatalf("identical guards must not count as exclusive, got %v", err)
	}
}

func TestVerifyRejectsParserCycle(t *testing.T) {
	p := &p4ir.Program{
		Name:    "cyc",
		Headers: []string{"ethernet", "ipv4"},
		Parser: []p4ir.ParserEdge{
			{From: "ethernet", To: "ipv4"},
			{From: "ipv4", To: "vlan"},
			{From: "vlan", To: "ipv4"}, // QinQ-style loop back into ipv4
		},
	}
	err := gate(p)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want parser cycle, got %v", err)
	}

	// The linear chain derived from Headers is acyclic.
	p.Parser = nil
	if err := gate(p); err != nil {
		t.Fatalf("linear parser must verify: %v", err)
	}
}

func TestVerifyRejectsUnboundedRecirculation(t *testing.T) {
	mk := func(guard string, withState bool) *p4ir.Program {
		p := &p4ir.Program{Name: "rc", Headers: []string{"ethernet", "ipv4"}}
		ops := []p4ir.Op{{Kind: p4ir.OpRecirculate}}
		if withState {
			// "+1" is the generator's in-flight counter: the walker only
			// takes a strictly increasing RMW as loop state.
			p.AddRegister(&p4ir.RegisterDef{Name: "inflight", Width: 32, Size: 64})
			ops = append([]p4ir.Op{{Kind: p4ir.OpRegisterRMW, Dst: "inflight", Src: "+1", Bits: 32}}, ops...)
		}
		a := p.AddAction(&p4ir.ActionDef{Name: "do_recirc", Ops: ops})
		tbl := p.AddTable(&p4ir.TableDef{
			Name: "recirc_tbl", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchExact,
			Keys:    []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
			Actions: []string{a.Name}, Size: 4,
		})
		apply := p4ir.ControlStmt{Apply: tbl.Name}
		if guard != "" {
			p.Ingress = []p4ir.ControlStmt{{If: guard, Then: []p4ir.ControlStmt{apply}}}
		} else {
			p.Ingress = []p4ir.ControlStmt{apply}
		}
		return p
	}

	err := gate(mk("", true))
	if err == nil || !strings.Contains(err.Error(), "recirculates unconditionally") {
		t.Fatalf("want unguarded recirculation rejection, got %v", err)
	}

	// A tautological guard is no guard.
	err = gate(mk("true", true))
	if err == nil || !strings.Contains(err.Error(), "recirculates unconditionally") {
		t.Fatalf("want true-guard recirculation rejection, got %v", err)
	}

	err = gate(mk("meta.loop == 1", false))
	if err == nil || !strings.Contains(err.Error(), "loop-state") {
		t.Fatalf("want stateless recirculation rejection, got %v", err)
	}

	// A register touch that does not strictly increase is not loop state.
	stale := mk("meta.loop == 1", true)
	stale.Actions[0].Ops[0].Src = "1"
	err = gate(stale)
	if err == nil || !strings.Contains(err.Error(), "loop-state") {
		t.Fatalf("want non-increasing loop state rejection, got %v", err)
	}

	// Guarded and stateful: the shape the generator emits for loop
	// templates.
	if err := gate(mk("meta.template_id != 0", true)); err != nil {
		t.Fatalf("bounded recirculation must verify: %v", err)
	}
}

// TestVerifyAcceptsIntervalExclusiveGuards: two interval guards over one
// field can be mutually exclusive without sharing a `field == const` shape.
// The gate must accept the disjoint pair and still reject an overlapping
// one.
func TestVerifyAcceptsIntervalExclusiveGuards(t *testing.T) {
	disjoint := rmwProg(2, true)
	disjoint.Ingress = []p4ir.ControlStmt{
		{If: "meta.x < 2", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.x > 5", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	if err := gate(disjoint); err != nil {
		t.Fatalf("disjoint interval guards must verify: %v", err)
	}

	overlap := rmwProg(2, true)
	overlap.Ingress = []p4ir.ControlStmt{
		{If: "meta.x >= 2", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.x <= 5", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	err := gate(overlap)
	if err == nil || !strings.Contains(err.Error(), "at most once per packet") {
		t.Fatalf("overlapping interval guards must be rejected, got %v", err)
	}
}

var gateSpecs = map[string]string{
	"throughput": `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set([loop, length], [0, 64])
    .set(port, 0)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
`,
	"loop": `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set([loop, length], [1, 64])
    .set(port, 0)
Q1 = query().map(p -> (pkt_len)).reduce(func=count)
`,
	"mods": `
T1 = trigger()
    .set([dip, proto], [9.9.9.9, tcp])
    .set(sport, range(1024, 2047, 1))
    .set(dport, [80, 81, 82])
    .set([loop, length], [0, 128])
    .set(port, 2)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
`,
}

// TestVerifyAcceptsCompiledPlans pins the other half of the contract: every
// plan the compiler actually produces passes the gate (it already runs
// inside Compile via validateProgram; calling its two halves again directly
// makes the acceptance explicit and keeps it if the wiring ever changes).
func TestVerifyAcceptsCompiledPlans(t *testing.T) {
	for name, src := range gateSpecs {
		task, err := ntapi.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		prog, err := Compile(task, Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if prog.P4 == nil {
			t.Fatalf("%s: no generated P4", name)
		}
		if err := VerifyPlan(prog.P4, TofinoStageModel); err != nil {
			t.Errorf("%s: compiled plan cannot be placed: %v", name, err)
		}
		if err := checkPlanSafety(prog, verify.Options{}); err != nil {
			t.Errorf("%s: compiled plan rejected: %v", name, err)
		}
	}
}

// TestTruncatedWalkFailsCompilation: a walk that hits its path cap has not
// verified the plan, and the gate must say so rather than pass a partial
// verdict. The cap is forced below what a real plan needs.
func TestTruncatedWalkFailsCompilation(t *testing.T) {
	task, err := ntapi.Parse("throughput", gateSpecs["throughput"])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = checkPlanSafety(prog, verify.Options{MaxPaths: 2})
	if err == nil || !strings.Contains(err.Error(), "walk truncated") {
		t.Fatalf("want the truncated-walk compile error, got %v", err)
	}
}
