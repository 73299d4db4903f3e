package stateless

import (
	"testing"
	"testing/quick"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

var layout = []asic.Field{asic.FieldIPv4Src, asic.FieldTCPSeq, asic.FieldInPort}

func TestPushPopOrder(t *testing.T) {
	f := New("t", layout, 8)
	for i := uint64(0); i < 5; i++ {
		if !f.Push([]uint64{i, i * 10, i * 100}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if f.Len() != 5 {
		t.Fatalf("len = %d", f.Len())
	}
	for i := uint64(0); i < 5; i++ {
		v, ok := f.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if v[0] != i || v[1] != i*10 || v[2] != i*100 {
			t.Fatalf("pop %d = %v", i, v)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if f.Len() != 0 {
		t.Fatalf("len after drain = %d", f.Len())
	}
}

func TestOverflowCountedAndDropped(t *testing.T) {
	f := New("t", layout, 2)
	f.Push([]uint64{1, 0, 0})
	f.Push([]uint64{2, 0, 0})
	if f.Push([]uint64{3, 0, 0}) {
		t.Fatal("push to full queue succeeded")
	}
	if f.Overflows != 1 {
		t.Fatalf("overflows = %d", f.Overflows)
	}
	// The queued records are intact.
	v, _ := f.Pop()
	if v[0] != 1 {
		t.Fatalf("head = %v", v)
	}
}

func TestWrapAround(t *testing.T) {
	f := New("t", layout, 4)
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 3; i++ {
			if !f.Push([]uint64{uint64(round)*10 + i, 0, 0}) {
				t.Fatalf("round %d push %d failed", round, i)
			}
		}
		for i := uint64(0); i < 3; i++ {
			v, ok := f.Pop()
			if !ok || v[0] != uint64(round)*10+i {
				t.Fatalf("round %d pop %d = %v ok=%v", round, i, v, ok)
			}
		}
	}
}

func TestPushArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	New("t", layout, 4).Push([]uint64{1})
}

func TestFieldIndex(t *testing.T) {
	f := New("t", layout, 4)
	if f.FieldIndex(asic.FieldTCPSeq) != 1 {
		t.Fatal("FieldIndex")
	}
	if f.FieldIndex(asic.FieldTCPAck) != -1 {
		t.Fatal("missing field should be -1")
	}
	if f.size != 4 {
		t.Fatal("capacity")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order of the
// successfully-pushed elements.
func TestFIFOOrderProperty(t *testing.T) {
	check := func(ops []bool) bool {
		f := New("p", []asic.Field{asic.FieldIPv4Src}, 8)
		var next, expect uint64
		for _, push := range ops {
			if push {
				if f.Push([]uint64{next}) {
					next++
				}
			} else if v, ok := f.Pop(); ok {
				if v[0] != expect {
					return false
				}
				expect++
			}
		}
		// Drain the remainder.
		for {
			v, ok := f.Pop()
			if !ok {
				break
			}
			if v[0] != expect {
				return false
			}
			expect++
		}
		// Every successful push must eventually pop.
		return expect == next
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPopIntoReusesTheCallersBuffer: PopInto fills the storage it is handed
// (Pop is PopInto with none), leaves it alone on an empty queue, and makes
// the same register accesses as Pop either way.
func TestPopIntoReusesTheCallersBuffer(t *testing.T) {
	f := New("t", layout, 4)
	buf := make([]uint64, 0, len(layout))
	if v, ok := f.PopInto(buf); ok || v != nil {
		t.Fatalf("pop-into from empty = %v, %v", v, ok)
	}
	f.Push([]uint64{1, 2, 3})
	f.Push([]uint64{4, 5, 6})
	v, ok := f.PopInto(buf)
	if !ok || &v[0] != &buf[:1][0] || v[0] != 1 || v[2] != 3 {
		t.Fatalf("pop-into = %v, %v (storage reused: %v)", v, ok, ok && &v[0] == &buf[:1][0])
	}
	short := make([]uint64, 0, 1)
	if v, ok := f.PopInto(short); !ok || len(v) != 3 || v[0] != 4 {
		t.Fatalf("pop-into a short buffer = %v, %v", v, ok)
	}
	if f.Popped != 2 || f.Len() != 0 {
		t.Fatalf("popped %d, len %d", f.Popped, f.Len())
	}

	g := New("g", layout, 4)
	g.Pop()
	g.Push([]uint64{1, 2, 3})
	g.Pop()
	h := New("h", layout, 4)
	h.PopInto(buf)
	h.Push([]uint64{1, 2, 3})
	h.PopInto(buf)
	if g.ptrs.Accesses != h.ptrs.Accesses || g.entries[0].Accesses != h.entries[0].Accesses {
		t.Fatalf("Pop made %d+%d register accesses, PopInto %d+%d",
			g.ptrs.Accesses, g.entries[0].Accesses, h.ptrs.Accesses, h.entries[0].Accesses)
	}
}

// TestInspectingIsSilent: Len and Empty are control-plane peeks. Looking at a
// FIFO — however often — leaves the SALU access counters and the trace
// exactly where they were; only Push and Pop are data-plane operations.
func TestInspectingIsSilent(t *testing.T) {
	f := New("t", layout, 4)
	sim := netsim.New()
	tr := obs.NewTraceSet().New("fifo")
	for _, r := range f.Registers() {
		r.Observe(sim, tr)
	}
	f.Push([]uint64{1, 2, 3})
	f.Push([]uint64{4, 5, 6})
	f.Pop()
	accesses := func() (n uint64) {
		for _, r := range f.Registers() {
			n += r.Accesses
		}
		return n
	}
	a0, r0 := accesses(), tr.Len()
	if a0 == 0 || r0 == 0 {
		t.Fatalf("push/pop made %d accesses and %d trace records, want some of each", a0, r0)
	}
	for i := 0; i < 10; i++ {
		if f.Len() != 1 || f.Empty() {
			t.Fatalf("len %d empty %v, want 1 false", f.Len(), f.Empty())
		}
	}
	if a, r := accesses(), tr.Len(); a != a0 || r != r0 {
		t.Fatalf("inspecting moved accesses %d -> %d, trace records %d -> %d", a0, a, r0, r)
	}
	f.Pop()
	if !f.Empty() || f.Len() != 0 {
		t.Fatalf("drained FIFO: len %d empty %v", f.Len(), f.Empty())
	}
	// The idle-loop model credits the accesses of empty pops it did not run.
	g := New("g", layout, 4)
	for i := 0; i < 3; i++ {
		g.Pop()
	}
	h := New("h", layout, 4)
	h.AccountEmptyPops(3)
	if g.ptrs.Accesses != h.ptrs.Accesses {
		t.Fatalf("3 empty pops made %d accesses, AccountEmptyPops(3) credited %d", g.ptrs.Accesses, h.ptrs.Accesses)
	}
}

// TestOnFillRunsBeforeTheFirstRecordOnly: the hook fires before a push into
// an empty queue has touched any register, and not for pushes behind it.
func TestOnFillRunsBeforeTheFirstRecordOnly(t *testing.T) {
	f := New("t", layout, 4)
	var calls int
	f.OnFill(func() {
		calls++
		if f.ptrs.Accesses != 0 && f.Len() != 0 {
			t.Fatalf("hook ran with %d records queued", f.Len())
		}
	})
	f.Push([]uint64{1, 2, 3})
	f.Push([]uint64{4, 5, 6})
	if calls != 1 {
		t.Fatalf("hook ran %d times over two pushes, want 1", calls)
	}
	f.Pop()
	f.Pop()
	f.Push([]uint64{7, 8, 9})
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2 (the queue had drained)", calls)
	}
}
