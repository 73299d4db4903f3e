package compiler

import (
	"testing"

	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/verify"
)

func compileSrc(t *testing.T, name, src string) *Program {
	t.Helper()
	task, err := ntapi.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return prog
}

const diffSrc = `
T1 = trigger()
    .set([dip, sip, proto, dport], [9.9.9.9, 1.1.0.1, tcp, 80])
    .set(sport, range(1024, 1279, 1))
    .set([loop, length], [0, 64])
    .set(port, 0)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().filter(tcp.flag == 18).map(p -> (pkt_len)).reduce(func=count)
`

// TestTemplateInvariants checks the derived environment facts: a TCP
// template implies IPv4 carriage and protocol 6.
func TestTemplateInvariants(t *testing.T) {
	prog := compileSrc(t, "inv", diffSrc)
	invs := TemplateInvariants(prog)
	if len(invs) != len(prog.Templates) {
		t.Fatalf("got %d implications for %d templates", len(invs), len(prog.Templates))
	}
	inv := invs[0]
	if inv.If.Field != "meta.template_id" || inv.If.Op != p4ir.CmpEq || inv.If.Value != 1 {
		t.Fatalf("If atom = %+v", inv.If)
	}
	want := map[string]uint64{"eth.type": 0x0800, "ipv4.proto": 6}
	for _, a := range inv.Then {
		if v, ok := want[a.Field]; ok && a.Op == p4ir.CmpEq && a.Value == v {
			delete(want, a.Field)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing Then atoms %v in %+v", want, inv.Then)
	}
}

// TestReplayPlanMatchesInterpreter is the differential oracle in miniature:
// every witness the verifier extracts from a compiled plan must produce a
// bit-identical outcome on the asic-backed executor and the naive
// interpreter.
func TestReplayPlanMatchesInterpreter(t *testing.T) {
	prog := compileSrc(t, "diff", diffSrc)
	rep := AnalyzePlan(prog, verify.Options{Witnesses: true})
	if errs := rep.Errors(); len(errs) > 0 {
		t.Fatalf("compiled plan has verifier errors: %v", errs)
	}
	if len(rep.Witnesses) == 0 {
		t.Fatal("no witnesses extracted")
	}
	for i := range rep.Witnesses {
		wit := rep.Witnesses[i]
		entries := SyntheticEntries(prog.P4, wit)
		got, err := ReplayPlan(prog, &wit, entries)
		if err != nil {
			t.Fatalf("witness %d: replay: %v", i, err)
		}
		in := &verify.Interp{Prog: prog.P4, Entries: entries}
		want := in.Run(wit)
		if got.Canonical() != want.Canonical() {
			t.Errorf("witness %d diverges (path %v):\n--- compiled ---\n%s--- naive ---\n%s",
				i, wit.Path, got.Canonical(), want.Canonical())
		}
	}
}
