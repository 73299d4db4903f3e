package asic

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// RegisterArray is a stateful register array accessed through a SALU
// (stateful ALU). Tofino constrains stateful access: a packet gets one
// read-modify-write on one index per array traversal, with a simple update
// function. The simulator offers exactly that shape.
type RegisterArray struct {
	Name  string
	cells []uint64

	// Accesses counts SALU operations, for resource accounting and the
	// pull-speed experiments.
	Accesses uint64

	// clock + trace, when bound via Observe, emit one salu trace record per
	// Read/Write/RMW (Snapshot and Reset are control-plane bulk operations
	// and stay silent).
	clock *netsim.Sim
	trace *obs.Trace
}

// Observe binds the array to a trace stream: every subsequent SALU access
// emits a salu record stamped with clock's current virtual time. Pass a nil
// trace to unbind.
func (r *RegisterArray) Observe(clock *netsim.Sim, tr *obs.Trace) {
	r.clock, r.trace = clock, tr
}

// NewRegisterArray allocates an array of size cells, all zero.
func NewRegisterArray(name string, size int) *RegisterArray {
	return &RegisterArray{Name: name, cells: make([]uint64, size)}
}

// Size returns the number of cells.
func (r *RegisterArray) Size() int { return len(r.cells) }

func (r *RegisterArray) check(idx int) {
	if idx < 0 || idx >= len(r.cells) {
		panic(fmt.Sprintf("asic: register %s index %d out of range [0,%d)", r.Name, idx, len(r.cells)))
	}
}

// Read returns the cell value (a SALU read).
func (r *RegisterArray) Read(idx int) uint64 {
	r.check(idx)
	r.Accesses++
	v := r.cells[idx]
	if r.trace != nil {
		r.trace.Emit(r.clock.Now(), obs.KindSALU, 0, r.Name, int64(idx), int64(v))
	}
	return v
}

// Peek returns the cell value without a SALU access: the control plane's
// silent look (no Accesses bump, no trace record), as Snapshot is for ranges.
func (r *RegisterArray) Peek(idx int) uint64 {
	r.check(idx)
	return r.cells[idx]
}

// Write stores v (a SALU write).
func (r *RegisterArray) Write(idx int, v uint64) {
	r.check(idx)
	r.Accesses++
	r.cells[idx] = v
	if r.trace != nil {
		r.trace.Emit(r.clock.Now(), obs.KindSALU, 0, r.Name, int64(idx), int64(v))
	}
}

// RMW performs one atomic read-modify-write: f receives the old value and
// returns the new value plus an output word handed back to the pipeline —
// the exact contract of a Tofino stateful ALU.
func (r *RegisterArray) RMW(idx int, f func(old uint64) (newVal, out uint64)) uint64 {
	r.check(idx)
	r.Accesses++
	nv, out := f(r.cells[idx])
	r.cells[idx] = nv
	if r.trace != nil {
		r.trace.Emit(r.clock.Now(), obs.KindSALU, 0, r.Name, int64(idx), int64(nv))
	}
	return out
}

// Snapshot copies cells[lo:hi] for control-plane pulls; the copy decouples
// the CPU's view from subsequent data-plane writes.
func (r *RegisterArray) Snapshot(lo, hi int) []uint64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(r.cells) {
		hi = len(r.cells)
	}
	out := make([]uint64, hi-lo)
	copy(out, r.cells[lo:hi])
	return out
}

// Reset zeroes every cell (control-plane operation between test runs).
func (r *RegisterArray) Reset() {
	for i := range r.cells {
		r.cells[i] = 0
	}
}
