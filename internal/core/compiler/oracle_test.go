package compiler

import (
	"math/bits"

	"github.com/hypertester/hypertester/internal/asic"
)

// The pre-matrix implementations of header-space enumeration and exact-key
// precomputation, kept verbatim as references for the differential tests in
// headerspace_test.go (Go-map dedup, chunked arena, one slice per tuple).

func oracleHeaderSpace(plan *QueryPlan, templates []*Template, cap int) (tuples [][]uint64, truncated bool) {
	seen := newOracleTupleSet(len(plan.Keys))
	arena := &oracleTupleArena{}
	ctx := &oracleEnumCtx{}
	for _, tmpl := range templates {
		if plan.Egress && tmpl.ID != plan.SentTemplateID {
			continue
		}
		if ctx.enumerateTemplate(plan, tmpl, cap, seen, arena, &tuples) {
			return tuples, true
		}
	}
	return tuples, false
}

// oracleGen binds one key field to the template modification generating its values.
type oracleGen struct {
	key int // index into the key tuple
	mod *FieldMod
}

// oracleEnumCtx holds enumerateTemplate's scratch state — the working tuple, the
// generator lists, the deduplicated random-value tables and the dedup set —
// so enumerating a program's templates (and, in the long-pole experiments,
// re-enumerating across many compiled plans) reuses one set of buffers
// instead of reallocating them per call.
type oracleEnumCtx struct {
	tuple     []uint64
	seqGens   []oracleGen
	randGens  []oracleGen
	randVals  [][]uint64
	dedupSeen map[uint64]struct{}
}

// dedupInto fills dst (reusing its capacity) with vals' distinct values in
// first-appearance order.
func (c *oracleEnumCtx) dedupInto(dst, vals []uint64) []uint64 {
	if c.dedupSeen == nil {
		c.dedupSeen = make(map[uint64]struct{}, len(vals))
	} else {
		clear(c.dedupSeen)
	}
	dst = dst[:0]
	for _, v := range vals {
		if _, ok := c.dedupSeen[v]; !ok {
			c.dedupSeen[v] = struct{}{}
			dst = append(dst, v)
		}
	}
	return dst
}

// oracleTupleSet deduplicates key tuples. Narrow tuples (the overwhelmingly
// common case) are keyed by a fixed-size array, which Go maps hash without
// allocating; wider ones fall back to an encoded-string key.
type oracleTupleSet struct {
	count int
	small map[[4]uint64]struct{}
	big   map[string]struct{}
	buf   []byte
}

func newOracleTupleSet(width int) *oracleTupleSet {
	s := &oracleTupleSet{}
	if width <= 4 {
		s.small = make(map[[4]uint64]struct{})
	} else {
		s.big = make(map[string]struct{})
	}
	return s
}

func (s *oracleTupleSet) contains(t []uint64) bool {
	if s.small != nil {
		var k [4]uint64
		copy(k[:], t)
		_, ok := s.small[k]
		return ok
	}
	s.buf = AppendKey(s.buf[:0], t)
	_, ok := s.big[string(s.buf)]
	return ok
}

func (s *oracleTupleSet) insert(t []uint64) {
	if s.small != nil {
		var k [4]uint64
		copy(k[:], t)
		s.small[k] = struct{}{}
	} else {
		s.buf = AppendKey(s.buf[:0], t)
		s.big[string(s.buf)] = struct{}{}
	}
	s.count++
}

// oracleTupleArena hands out tuple copies carved from chunked backing arrays, so
// enumerating a large header space costs one allocation per chunk instead
// of one per tuple. Returned slices are full-capacity and read-only by
// convention (the compiler never mutates emitted tuples).
type oracleTupleArena struct {
	buf   []uint64
	chunk int
}

func (a *oracleTupleArena) clone(t []uint64) []uint64 {
	if len(a.buf)+len(t) > cap(a.buf) {
		if a.chunk < 1<<14 {
			a.chunk = max(512, 4*a.chunk)
		}
		a.buf = make([]uint64, 0, a.chunk)
	}
	n := len(a.buf)
	a.buf = append(a.buf, t...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

func (c *oracleEnumCtx) enumerateTemplate(plan *QueryPlan, tmpl *Template, cap int, seen *oracleTupleSet, arena *oracleTupleArena, out *[][]uint64) (truncated bool) {
	// Base values come from the template packet itself.
	base := asic.NewPHV(tmpl.Packet.Clone())

	// Which key fields does this template modify, and how?
	seqGens := c.seqGens[:0]   // list/progression: advance with packet ID
	randGens := c.randGens[:0] // random: any table value
	period := uint64(1)
	for ki, kf := range plan.Keys {
		src := kf
		if !plan.Egress {
			src = reverseField(kf)
		}
		for mi := range tmpl.Mods {
			m := &tmpl.Mods[mi]
			if !fieldMatches(src, m.Field) {
				continue
			}
			switch m.Kind {
			case ModList, ModProgression:
				seqGens = append(seqGens, oracleGen{ki, m})
				period = oracleLCM(period, m.StreamLen())
			case ModRandom:
				randGens = append(randGens, oracleGen{ki, m})
			case ModFromRecord:
				// Record-stamped fields echo received values; their
				// space is the space of the source query, which is in
				// turn generated traffic. Approximating with the base
				// value keeps enumeration sound for the common case
				// where responses preserve probe endpoints.
			}
			break
		}
	}
	if period > uint64(cap) {
		period = uint64(cap)
		truncated = true
	}
	c.seqGens, c.randGens = seqGens, randGens

	// Pre-dedup random tables, reusing the per-slot value buffers.
	for len(c.randVals) < len(randGens) {
		c.randVals = append(c.randVals, nil)
	}
	randValues := c.randVals[:len(randGens)]
	for i, g := range randGens {
		randValues[i] = c.dedupInto(randValues[i], g.mod.InvTable)
	}

	if w := len(plan.Keys); w > len(c.tuple) {
		c.tuple = make([]uint64, w)
	}
	tuple := c.tuple[:len(plan.Keys)]
	for ki, kf := range plan.Keys {
		src := kf
		if !plan.Egress {
			src = reverseField(kf)
		}
		tuple[ki] = src.Get(base)
	}

	var emit func(ri int) bool
	emit = func(ri int) bool {
		if ri < len(randGens) {
			for _, v := range randValues[ri] {
				tuple[randGens[ri].key] = v
				if emit(ri + 1) {
					return true
				}
			}
			return false
		}
		if seen.contains(tuple) {
			return false
		}
		if seen.count >= cap {
			return true
		}
		seen.insert(tuple)
		*out = append(*out, arena.clone(tuple))
		return false
	}

	for pktID := uint64(0); pktID < period; pktID++ {
		for _, g := range seqGens {
			tuple[g.key] = g.mod.ValueAt(pktID)
		}
		if emit(0) {
			return true
		}
	}
	return truncated
}

func oracleLCM(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

func oracleExactKeys(tuples [][]uint64, arraySize, digestBits int, polyA1, polyA2, polyDigest uint32) [][]uint64 {
	h1 := asic.NewHashUnit("fp-a1", polyA1)
	halt := asic.NewHashUnit("fp-alt", polyA2)
	hd := asic.NewHashUnit("fp-digest", polyDigest)

	// Occupied (slot, digest) cells, packed slot<<32|digest into an
	// open-addressed table. CuckooSlots never returns digest 0 (zero marks
	// an empty runtime cell), so a packed cell is never 0 and 0 can mark
	// empty probe slots here too. Sized for <=50% load at two cells per
	// tuple, probed linearly from a Fibonacci-mixed home slot.
	tableSize := 16
	for tableSize < 4*len(tuples) {
		tableSize <<= 1
	}
	shift := uint(64 - bits.TrailingZeros(uint(tableSize)))
	mask := uint64(tableSize - 1)
	set := make([]uint64, tableSize)
	// claim records c if absent and reports whether it was already present.
	claim := func(c uint64) bool {
		h := (c * 0x9e3779b97f4a7c15) >> shift
		for {
			switch set[h] {
			case 0:
				set[h] = c
				return false
			case c:
				return true
			}
			h = (h + 1) & mask
		}
	}

	needExact := make([]bool, len(tuples))
	need := 0
	var kbuf []byte
	for i, t := range tuples {
		kbuf = AppendKey(kbuf[:0], t)
		idx1, idx2, d := CuckooSlots(kbuf, arraySize, digestBits, h1, hd, halt)
		// Claim both candidate cells in order; either being taken (including
		// by this key's own first claim, when idx1 == idx2) means a runtime
		// lookup could land on a foreign cell, so the key needs exact-match
		// coverage.
		taken := claim(uint64(uint32(idx1))<<32 | uint64(d))
		if claim(uint64(uint32(idx2))<<32|uint64(d)) || taken {
			needExact[i] = true
			need++
		}
	}

	out := make([][]uint64, 0, need)
	for i := range tuples {
		if needExact[i] {
			out = append(out, tuples[i])
		}
	}
	return out
}
