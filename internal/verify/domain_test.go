package verify

import (
	"reflect"
	"testing"

	"github.com/hypertester/hypertester/internal/p4ir"
)

func TestConstrainIntervals(t *testing.T) {
	v := Top(8)
	if !v.Constrain(p4ir.CmpGe, 10) || !v.Constrain(p4ir.CmpLe, 20) {
		t.Fatal("interval [10,20] should be satisfiable")
	}
	if v.Lo != 10 || v.Hi != 20 {
		t.Fatalf("got [%d,%d], want [10,20]", v.Lo, v.Hi)
	}
	if v.Constrain(p4ir.CmpGt, 20) {
		t.Fatal("x in [10,20] and x > 20 should be unsatisfiable")
	}

	v = Top(8)
	if !v.Constrain(p4ir.CmpEq, 7) {
		t.Fatal("x == 7 satisfiable")
	}
	if c, ok := v.ConstValue(); !ok || c != 7 {
		t.Fatalf("ConstValue = %d,%v want 7,true", c, ok)
	}
	if v.Constrain(p4ir.CmpNe, 7) {
		t.Fatal("x == 7 and x != 7 should be unsatisfiable")
	}
}

func TestConstrainBeyondWidth(t *testing.T) {
	v := Top(8)
	if v.Constrain(p4ir.CmpGt, 300) {
		t.Fatal("an 8-bit field can never exceed 300")
	}
	v = Top(8)
	if !v.Constrain(p4ir.CmpLt, 300) {
		t.Fatal("an 8-bit field is always below 300")
	}
	if !reflect.DeepEqual(v, Top(8)) {
		t.Fatalf("x < 300 should not constrain an 8-bit field, got %s", v)
	}
}

func TestConstrainNe(t *testing.T) {
	v := Top(4)
	for _, c := range []uint64{0, 1, 2} {
		if !v.Constrain(p4ir.CmpNe, c) {
			t.Fatalf("!= %d should stay satisfiable", c)
		}
	}
	if got := v.Concretize(); got < 3 {
		t.Fatalf("Concretize = %d, excluded values {0,1,2}", got)
	}
	if !v.Constrain(p4ir.CmpLe, 3) {
		t.Fatal("<= 3 with {0,1,2} excluded leaves 3")
	}
	if c, ok := v.ConstValue(); !ok || c != 3 {
		t.Fatalf("want const 3, got %s", v)
	}
}

func TestConstrainMask(t *testing.T) {
	v := Top(8)
	if !v.ConstrainMask(0xF0, 0xA0) {
		t.Fatal("high nibble 0xA satisfiable")
	}
	got := v.Concretize()
	if got&0xF0 != 0xA0 {
		t.Fatalf("Concretize = %#x, want high nibble 0xA", got)
	}
	if !v.Admits(0xA5) || v.Admits(0xB0) {
		t.Fatal("Admits disagrees with the known-bits constraint")
	}
	if v.ConstrainMask(0xF0, 0x50) {
		t.Fatal("contradictory masks should be unsatisfiable")
	}
}

func TestCloneIsolation(t *testing.T) {
	v := Top(16)
	v.Constrain(p4ir.CmpNe, 5)
	c := v.Clone()
	c.Constrain(p4ir.CmpNe, 6)
	if len(v.Ne) != 1 || len(c.Ne) != 2 {
		t.Fatalf("clone shares Ne storage: v=%v c=%v", v.Ne, c.Ne)
	}
}

func TestConcretizeRespectsAll(t *testing.T) {
	v := Top(16)
	v.Constrain(p4ir.CmpGe, 100)
	v.Constrain(p4ir.CmpLe, 200)
	v.Constrain(p4ir.CmpNe, 100)
	v.ConstrainMask(1, 1) // odd
	got := v.Concretize()
	if !v.Admits(got) {
		t.Fatalf("Concretize = %d not admitted by %s", got, v)
	}
}
