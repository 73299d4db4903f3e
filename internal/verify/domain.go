// Package verify is a path-sensitive symbolic evaluator over p4ir programs
// (ROADMAP item 4, in the spirit of P4Testgen): it enumerates parser and
// control paths under a path condition over PHV fields, tracking header
// validity, and from that single walk derives
//
//   - proofs that no action touches a field of a header that can be
//     invalid on some feasible path;
//   - reachability facts: unreachable tables, dead or shadowed entries,
//     infeasible gateway branches;
//   - a path-sensitive verdict for the one-SALU-access-per-packet rule
//     (two accesses conflict only when their path conditions are jointly
//     satisfiable);
//   - a termination argument for recirculation (some loop-state register
//     strictly increases on every recirculating path);
//   - and, for every feasible leaf path, a concrete witness packet that
//     the differential harness (interp.go plus compiler.ReplayPlan)
//     replays over both a real asic frame and a flat field map.
//
// Everything is stdlib-only; the path condition domain is a bitvector
// interval plus known-bits lattice with a small disequality set.
package verify

import (
	"fmt"
	"sort"

	"github.com/hypertester/hypertester/internal/p4ir"
)

// Value is the abstract value of one PHV field on a path: every concrete
// value v it admits satisfies Lo <= v <= Hi, v&Mask == Bits, and v is not
// in Ne. A Value is created by Top or Const and refined by Constrain; the
// zero Value is NOT meaningful.
type Value struct {
	W      int    // field width in bits (1..64)
	Lo, Hi uint64 // inclusive interval
	Mask   uint64 // known-bit positions
	Bits   uint64 // known-bit values (Bits &^ Mask == 0)
	Ne     []uint64
}

// maxVal returns the largest value a w-bit field holds.
func maxVal(w int) uint64 {
	if w <= 0 || w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// Top returns the unconstrained value of a w-bit field.
func Top(w int) *Value { return &Value{W: w, Hi: maxVal(w)} }

// Const returns the singleton value.
func Const(w int, v uint64) *Value {
	v &= maxVal(w)
	return &Value{W: w, Lo: v, Hi: v, Mask: maxVal(w), Bits: v}
}

// Clone deep-copies the value.
func (v *Value) Clone() *Value {
	c := *v
	c.Ne = append([]uint64(nil), v.Ne...)
	return &c
}

// ConstValue returns the single admitted value, if there is exactly one.
func (v *Value) ConstValue() (uint64, bool) {
	if v.Lo == v.Hi {
		return v.Lo, true
	}
	return 0, false
}

func (v *Value) excluded(x uint64) bool {
	for _, n := range v.Ne {
		if n == x {
			return true
		}
	}
	return false
}

// normalize shrinks the interval off excluded endpoints and reports whether
// any admitted value remains.
func (v *Value) normalize() bool {
	for v.Lo <= v.Hi {
		if !v.excluded(v.Lo) && v.Lo&v.Mask == v.Bits&v.Mask {
			break
		}
		// Endpoints excluded by Ne or known bits slide inward; known-bit
		// exclusion only slides while the interval is small enough to
		// walk (the generated programs constrain narrow fields).
		if v.Lo == v.Hi {
			return false
		}
		v.Lo++
	}
	for v.Hi >= v.Lo {
		if !v.excluded(v.Hi) && v.Hi&v.Mask == v.Bits&v.Mask {
			break
		}
		if v.Hi == v.Lo {
			return false
		}
		v.Hi--
	}
	return v.Lo <= v.Hi
}

// Constrain refines the value with `value op c` and reports whether the
// refined value still admits anything (false = the path is infeasible).
func (v *Value) Constrain(op p4ir.CmpOp, c uint64) bool {
	max := maxVal(v.W)
	if c > max {
		// A constant beyond the field's width: ==, >, >= can never hold;
		// !=, <, <= always hold.
		switch op {
		case p4ir.CmpEq, p4ir.CmpGt, p4ir.CmpGe:
			return false
		default:
			return v.normalize()
		}
	}
	switch op {
	case p4ir.CmpEq:
		if c < v.Lo || c > v.Hi || v.excluded(c) || c&v.Mask != v.Bits&v.Mask {
			return false
		}
		v.Lo, v.Hi = c, c
		v.Mask, v.Bits = max, c
	case p4ir.CmpNe:
		if v.Lo == v.Hi && v.Lo == c {
			return false
		}
		if !v.excluded(c) {
			v.Ne = append(v.Ne, c)
		}
	case p4ir.CmpLt:
		if c == 0 {
			return false
		}
		if c-1 < v.Hi {
			v.Hi = c - 1
		}
	case p4ir.CmpLe:
		if c < v.Hi {
			v.Hi = c
		}
	case p4ir.CmpGt:
		if c == max {
			return false
		}
		if c+1 > v.Lo {
			v.Lo = c + 1
		}
	case p4ir.CmpGe:
		if c > v.Lo {
			v.Lo = c
		}
	}
	return v.normalize()
}

// ConstrainMask refines with a ternary match `value & mask == bits` and
// reports continued satisfiability.
func (v *Value) ConstrainMask(mask, bits uint64) bool {
	bits &= mask
	if v.Mask&mask != 0 && v.Bits&mask&v.Mask != bits&v.Mask {
		return false
	}
	v.Mask |= mask
	v.Bits = (v.Bits &^ mask) | bits
	return v.normalize()
}

// Concretize picks one admitted value, preferring the smallest. The scan is
// bounded; when the known-bits pattern cannot be located inside the bound
// it falls back to forcing the known bits onto Lo (still inside the
// interval for the shapes our walker produces).
func (v *Value) Concretize() uint64 {
	sort.Slice(v.Ne, func(i, j int) bool { return v.Ne[i] < v.Ne[j] })
	const scanCap = 1 << 16
	x := v.Lo
	for i := 0; i < scanCap && x <= v.Hi; i++ {
		if x&v.Mask == v.Bits&v.Mask && !v.excluded(x) {
			return x
		}
		if x == v.Hi {
			break
		}
		x++
	}
	return ((v.Lo &^ v.Mask) | v.Bits&v.Mask) & maxVal(v.W)
}

// Admits reports whether the value admits the concrete x.
//
//htlint:ignore deadexport the membership predicate the domain tests check Concretize against
func (v *Value) Admits(x uint64) bool {
	return x >= v.Lo && x <= v.Hi && x&v.Mask == v.Bits&v.Mask && !v.excluded(x)
}

func (v *Value) String() string {
	if c, ok := v.ConstValue(); ok {
		return fmt.Sprintf("%d", c)
	}
	s := fmt.Sprintf("[%d,%d]", v.Lo, v.Hi)
	if v.Mask != 0 {
		s += fmt.Sprintf("&%#x=%#x", v.Mask, v.Bits)
	}
	if len(v.Ne) > 0 {
		s += fmt.Sprintf("≠%v", v.Ne)
	}
	return s
}
