// Package ntapi implements the Network Testing API (§4): the packet-stream
// programming model with triggers (packet generation) and queries
// (statistic collection), the field and value vocabulary of Tables 1 and 2,
// and a parser for the textual task format used by the operator CLI.
package ntapi

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netproto"
)

// DistKind names the random distributions the editor can emulate with the
// inverse transformation method (§5.1).
type DistKind string

// Supported distributions.
const (
	DistUniform     DistKind = "uniform"
	DistNormal      DistKind = "normal"
	DistExponential DistKind = "exponential"
)

// Value is a field value in a set operation: a constant, a value list, a
// range array (arithmetic progression), a random array, or a reference to a
// field of the triggering query's record (Table 2's value grammar).
type Value interface {
	value()
	String() string
}

// Const is a fixed value applied to every packet.
type Const uint64

func (Const) value()           {}
func (c Const) String() string { return fmt.Sprintf("%d", uint64(c)) }

// IP builds a Const from dotted-quad notation.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func IP(s string) Const { return Const(netproto.MustIPv4(s)) }

// List assigns values from a pre-defined list, one per generated packet,
// cycling.
type List []uint64

func (List) value()           {}
func (l List) String() string { return fmt.Sprintf("%v", []uint64(l)) }

// Range is the arithmetic progression range(start, end, step): start,
// start+step, ... wrapping after end (inclusive).
type Range struct {
	Start, End uint64
	Step       uint64
}

func (Range) value() {}
func (r Range) String() string {
	return fmt.Sprintf("range(%d,%d,%d)", r.Start, r.End, r.Step)
}

// Count returns the number of values in the progression.
func (r Range) Count() uint64 {
	if r.Step == 0 || r.End < r.Start {
		return 0
	}
	return (r.End-r.Start)/r.Step + 1
}

// Random draws each packet's value from a distribution: random(ALG, P, n)
// in the paper's grammar. P1/P2 are distribution parameters (mean/stddev
// for normal, rate for exponential, lo/hi for uniform); Bits bounds the
// generated value's width.
type Random struct {
	Dist   DistKind
	P1, P2 float64
	Bits   int
}

func (Random) value() {}
func (r Random) String() string {
	return fmt.Sprintf("random(%s,%g,%g,%d)", r.Dist, r.P1, r.P2, r.Bits)
}

// Ref reads a field from the triggering query's record, plus a constant
// offset — the Q1.seq_no + 1 form stateless connections use (§5.4).
type Ref struct {
	Field  string
	Offset int64
}

func (Ref) value() {}
func (r Ref) String() string {
	if r.Offset == 0 {
		return "q." + r.Field
	}
	return fmt.Sprintf("q.%s%+d", r.Field, r.Offset)
}

// Payload is a constant payload value (switch CPU writes it into template
// packets; the pipeline itself cannot touch payloads).
type Payload []byte

func (Payload) value()           {}
func (p Payload) String() string { return fmt.Sprintf("%q", string(p)) }
