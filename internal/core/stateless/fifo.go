// Package stateless implements the stateless-connection machinery of §5.3:
// the trigger FIFO through which the packet receiver (HTPR) hands trigger
// records to the packet sender (HTPS), built from register arrays with the
// front/rear counter discipline of Figure 7. HyperTester stores no
// per-connection state — response packets are generated purely from the
// record extracted out of the packet that triggered them.
package stateless

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
)

// FIFO is a register-file FIFO of fixed-width records. Figure 7: a front
// counter and a rear counter (read and update operations), with rear updates
// guarded against underflow by the front value. As in the paper, freedom
// from overflow is NOT guaranteed (§6.1's stated limitation) — overflowing
// pushes are counted and dropped.
type FIFO struct {
	Name string

	// Fields is the record layout: one register array per field.
	Fields []asic.Field

	entries []*asic.RegisterArray
	ptrs    *asic.RegisterArray // [frontIdx]=dequeue counter, [rearIdx]=enqueue counter
	size    int

	// Overflows counts records dropped on a full queue.
	Overflows uint64
	// Pushed and Popped count successful operations.
	Pushed, Popped uint64

	// wake, when set, runs before a push into an empty queue — the one
	// transition that can end a consumer's idleness (asic.Switch.WakeLoop).
	wake func()
}

const (
	frontIdx = 0
	rearIdx  = 1
)

// New builds a FIFO of the given capacity for records with the given field
// layout.
func New(name string, fields []asic.Field, capacity int) *FIFO {
	if capacity <= 0 {
		capacity = 1024
	}
	f := &FIFO{
		Name:   name,
		Fields: append([]asic.Field(nil), fields...),
		ptrs:   asic.NewRegisterArray(name+"/ptrs", 2),
		size:   capacity,
	}
	for _, fld := range f.Fields {
		f.entries = append(f.entries, asic.NewRegisterArray(
			fmt.Sprintf("%s/%s", name, fld.Name()), capacity))
	}
	return f
}

// Cap returns the FIFO capacity in records.
func (f *FIFO) Cap() int { return f.size }

// Len returns the number of queued records. Like Snapshot it is a
// control-plane peek: no SALU access is counted and no trace record emitted.
func (f *FIFO) Len() int {
	return int(f.ptrs.Peek(rearIdx) - f.ptrs.Peek(frontIdx))
}

// Empty reports whether no record is queued, as silently as Len.
func (f *FIFO) Empty() bool { return f.ptrs.Peek(rearIdx) == f.ptrs.Peek(frontIdx) }

// OnFill installs fn to run before every push into an empty queue, ahead of
// any register access: whoever has promised a consumer that the queue stays
// empty (the tester's idle oracle) gets to settle up first.
func (f *FIFO) OnFill(fn func()) { f.wake = fn }

// AccountEmptyPops credits n pops of an empty queue with the SALU accesses
// each performs (the rear read and the guarded front update) without
// running them: the idle-loop model's per-pass accounting.
func (f *FIFO) AccountEmptyPops(n uint64) { f.ptrs.Accesses += 2 * n }

// Push enqueues one record (one value per field, in Fields order). It
// reports false — and counts an overflow — when the queue is full.
func (f *FIFO) Push(values []uint64) bool {
	if len(values) != len(f.Fields) {
		panic(fmt.Sprintf("stateless: FIFO %s push with %d values, want %d", f.Name, len(values), len(f.Fields)))
	}
	if f.wake != nil && f.Empty() {
		f.wake()
	}
	front := f.ptrs.Read(frontIdx)
	// Rear update guarded by the front value (Figure 7's dependency, here
	// preventing overflow past capacity).
	rear := f.ptrs.RMW(rearIdx, func(old uint64) (uint64, uint64) {
		if old-front >= uint64(f.size) {
			return old, ^uint64(0) // full: leave rear unchanged
		}
		return old + 1, old
	})
	if rear == ^uint64(0) {
		f.Overflows++
		return false
	}
	slot := int(rear % uint64(f.size))
	for i, arr := range f.entries {
		arr.Write(slot, values[i])
	}
	f.Pushed++
	return true
}

// Pop dequeues one record into a fresh slice, for records that outlive the
// call — a trigger record rides its packet's metadata until the editor has
// stamped it into the replica. ok is false when the queue is empty.
func (f *FIFO) Pop() (values []uint64, ok bool) { return f.PopInto(nil) }

// PopInto is Pop into dst's storage, reallocated only when its capacity is
// short of one record: the allocation-free form for a record consumed before
// the next pop (the counter tables' KV drain). ok is false when the queue is
// empty (the front update depends on the rear value to prevent underflow).
func (f *FIFO) PopInto(dst []uint64) (values []uint64, ok bool) {
	rear := f.ptrs.Read(rearIdx)
	front := f.ptrs.RMW(frontIdx, func(old uint64) (uint64, uint64) {
		if old >= rear {
			return old, ^uint64(0) // empty
		}
		return old + 1, old
	})
	if front == ^uint64(0) {
		return nil, false
	}
	slot := int(front % uint64(f.size))
	if cap(dst) < len(f.entries) {
		dst = make([]uint64, len(f.entries))
	}
	values = dst[:len(f.entries)]
	for i, arr := range f.entries {
		values[i] = arr.Read(slot)
	}
	f.Popped++
	return values, true
}

// Registers lists the FIFO's register arrays (pointers, then one per record
// field) for resource accounting and differential tests.
func (f *FIFO) Registers() []*asic.RegisterArray {
	return append([]*asic.RegisterArray{f.ptrs}, f.entries...)
}

// FieldIndex returns the record index of a field, or -1.
func (f *FIFO) FieldIndex(fld asic.Field) int {
	for i, x := range f.Fields {
		if x == fld {
			return i
		}
	}
	return -1
}
