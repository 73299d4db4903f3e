package compiler

import (
	"fmt"
	"slices"

	"github.com/hypertester/hypertester/internal/asic"
)

// keySpaces enumerates the distinct key tuples each query of one Compile
// call can observe and precomputes their colliding keys. The observation
// grounding §5.2: test traffic is generated by HyperTester itself, so the
// header space is fully predictable from the triggers' set operations. For
// sent-traffic queries the space is the generated packets; for
// received-traffic queries it is the response direction (endpoints
// swapped), since responses come back from the probed targets.
//
// Queries whose spaceKey coincides share one enumeration and one exact-key
// list. The memo and the scratch of the space being enumerated live and die
// with the Compile call that owns the templates, so there is nothing to
// invalidate and nothing carried into the next call.
type keySpaces struct {
	templates []*Template
	bases     []*asic.PHV // parsed template packets, filled on first use
	done      map[spaceKey]*keySpace
	set       keySet // the space being enumerated; its buffers are reused by the next
}

// spaceKey is everything a key space and its exact-key list depend on.
type spaceKey struct {
	fields                     string // resolved source fields, one byte per key
	templates                  string // positions of the enumerated templates
	cap, arraySize, digestBits int
	polyA1, polyA2, polyDigest uint32
}

type keySpace struct {
	size      int
	truncated bool
	exact     [][]uint64
}

func newKeySpaces(templates []*Template) *keySpaces {
	return &keySpaces{
		templates: templates,
		bases:     make([]*asic.PHV, len(templates)),
		done:      map[spaceKey]*keySpace{},
	}
}

// resolve names what plan's key tuples are read from: the source fields
// (response direction for received traffic) and the positions of the
// templates whose packets the query can observe, plus the table geometry
// the exact-key list is computed for.
func (s *keySpaces) resolve(plan *QueryPlan, cap int) (key spaceKey, sel []int) {
	fields := make([]byte, len(plan.Keys))
	for i, kf := range plan.Keys {
		if !plan.Egress {
			kf = reverseField(kf)
		}
		fields[i] = byte(kf)
	}
	for i, t := range s.templates {
		if !plan.Egress || t.ID == plan.SentTemplateID {
			sel = append(sel, i)
		}
	}
	return spaceKey{
		fields: string(fields), templates: fmt.Sprint(sel), cap: cap,
		arraySize: plan.ArraySize, digestBits: plan.DigestBits,
		polyA1: plan.PolyArray1, polyA2: plan.PolyArray2, polyDigest: plan.PolyDigest,
	}, sel
}

// of returns plan's key space, enumerating it on first request. Enumeration
// stops at cap with truncated set — a truncated space cannot be made
// false-positive-free, so it gets no exact-key list.
func (s *keySpaces) of(plan *QueryPlan, cap int) *keySpace {
	key, sel := s.resolve(plan, cap)
	if sp, ok := s.done[key]; ok {
		return sp
	}
	truncated := s.enumerate(key, sel)
	sp := &keySpace{size: len(s.set.k.sums), truncated: truncated}
	if !truncated {
		sp.exact = copyRows(s.set.rows, s.set.width, s.set.k.ExactRows(key.arraySize, key.digestBits))
	}
	s.done[key] = sp
	return sp
}

// enumerate fills s.set with key's space and reports whether it was
// truncated. It follows the editor's semantics exactly: per template the
// packet ID sweeps all value sequences in lockstep (one pass is the LCM of
// the sequence lengths); random fields contribute the distinct values of
// their inverse-transform tables. The set is presized from what the
// generators can emit at most, Σ over templates of period × Π distinct
// random values (clamped to cap), so a small space never pays for a large
// cap.
func (s *keySpaces) enumerate(key spaceKey, sel []int) (truncated bool) {
	gens := make([]tmplGens, len(sel))
	bound := 0
	for i, ti := range sel {
		if s.bases[ti] == nil {
			s.bases[ti] = asic.NewPHV(s.templates[ti].Packet.Clone())
		}
		gens[i] = newTmplGens(key.fields, s.templates[ti], s.bases[ti], key.cap)
		bound += min(gens[i].bound(key.cap), key.cap-bound)
	}
	// One template that emits no tuple twice needs no dedup.
	s.set.reset(key, bound, len(gens) != 1 || !gens[0].distinct)
	for i := range gens {
		if gens[i].emit(&s.set, key.cap) {
			return true
		}
	}
	return false
}

// keySet is a key space under enumeration, hashed as it is deduplicated:
// each emitted tuple is encoded and CRC'd once, and the distinct ones are
// kept in first-appearance order as one row-major matrix with their CRC
// pairs in the kernel's sums, at the same row number. The dedup index —
// row number + 1, 0 = empty, homed by the CRC pair — is the kernel's
// scratch table, which ExactRows then clears and reuses as its cell set: a
// space holds its rows, its sums and one table. The index is sized from the
// bound on the rows enumerate computes, so it never grows and stays at most
// a quarter full. A space that cannot repeat a tuple has no index: a probe
// into a large one costs a cache miss per tuple.
type keySet struct {
	k     ExactKeyKernel
	dedup bool // false: no tuple can arrive twice
	width int
	rows  []uint64
}

// reset empties the set for key's space, sized for bound tuples.
func (s *keySet) reset(key spaceKey, bound int, dedup bool) {
	s.dedup = dedup
	s.k.setPolys(key.polyA1, key.polyA2, key.polyDigest)
	s.width = len(key.fields)
	s.rows = slices.Grow(s.rows[:0], bound*s.width)
	s.k.sums = slices.Grow(s.k.sums[:0], bound)
	if dedup {
		s.k.scratch(max(16, 4*bound))
	}
}

// add appends t unless a row already equals it, and reports whether t is
// new but limit rows are already held (t is then not added). Full tuples
// are compared only where the CRC pairs match.
func (s *keySet) add(t []uint64, limit int) (full bool) {
	sum := s.k.sum(t)
	i := -1 // t's empty index slot
	if s.dedup {
		idx, w := s.k.set, s.width
		for i = home(sum, len(idx)); idx[i] != 0; i = next(i, len(idx)) {
			r := int(idx[i]) - 1
			if s.k.sums[r] == sum && slices.Equal(s.rows[r*w:(r+1)*w], t) {
				return false
			}
		}
	}
	n := len(s.k.sums)
	if n >= limit {
		return true
	}
	s.rows = append(s.rows, t...)
	s.k.sums = append(s.k.sums, sum)
	if i >= 0 {
		if 4*(n+1) > len(s.k.set) {
			panic("compiler: key space enumerated past its bound")
		}
		s.k.set[i] = uint32(n + 1)
	}
	return false
}

// seqGen binds one key field to the list or progression generating its
// values, walked in packet-ID order by a counter: value i of a list, or
// Start + i·Step of a progression, with i wrapping at the stream length —
// FieldMod.ValueAt without a division per packet.
type seqGen struct {
	key  int // index into the key tuple
	mod  *FieldMod
	i, n uint64 // position in the stream and its length
	val  uint64 // a progression's value at i
}

func (s *seqGen) next() (v uint64) {
	if s.mod.Kind == ModList {
		v = s.mod.List[s.i]
	} else {
		v = s.val
		s.val += s.mod.Step
	}
	if s.i++; s.i == s.n {
		s.i, s.val = 0, s.mod.Start
	}
	return v
}

// rndGen binds one key field to the random modification generating it.
type rndGen struct {
	key  int
	vals []uint64 // the table's distinct values, first-appearance order
}

// tmplGens is how one template generates one key tuple.
type tmplGens struct {
	tuple  []uint64 // working tuple, initialised from the template packet itself
	seq    []seqGen // list/progression: advance with packet ID
	rnd    []rndGen // random: any table value
	period uint64   // one lockstep pass over seq, saturated at cap+1
	// distinct: no tuple is emitted twice. Progressions and the random
	// fields' value lists never repeat a value, and within one period no
	// two packets sit at the same position of every sequence, so only a
	// list with a repeated value can repeat a tuple.
	distinct bool
}

func newTmplGens(fields string, tmpl *Template, base *asic.PHV, cap int) tmplGens {
	g := tmplGens{tuple: make([]uint64, len(fields)), period: 1, distinct: true}
	for ki := 0; ki < len(fields); ki++ {
		src := asic.Field(fields[ki])
		g.tuple[ki] = src.Get(base)
		for mi := range tmpl.Mods {
			m := &tmpl.Mods[mi]
			if !fieldMatches(src, m.Field) {
				continue
			}
			switch m.Kind {
			case ModList, ModProgression:
				g.seq = append(g.seq, seqGen{key: ki, mod: m, n: m.StreamLen(), val: m.Start})
				g.period = lcmSat(g.period, m.StreamLen(), uint64(cap))
				if m.Kind == ModList && len(distinctValues(m.List)) < len(m.List) {
					g.distinct = false
				}
			case ModRandom:
				g.rnd = append(g.rnd, rndGen{ki, distinctValues(m.InvTable)})
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
	return g
}

// bound is the most tuples emit can add, saturated at cap.
func (g *tmplGens) bound(cap int) int {
	b := int(min(g.period, uint64(max(cap, 0))))
	for _, r := range g.rnd {
		if len(r.vals) > 0 && b > cap/len(r.vals) {
			return cap
		}
		b *= len(r.vals)
	}
	return b
}

// emit adds the template's tuples to set in generation order and reports
// whether the space was truncated: the period exceeds cap, or a new tuple
// arrived with cap rows already held.
func (g *tmplGens) emit(set *keySet, cap int) (truncated bool) {
	period := g.period
	if period > uint64(cap) {
		period, truncated = uint64(cap), true
	}
	if slices.ContainsFunc(g.rnd, func(r rndGen) bool { return len(r.vals) == 0 }) {
		return truncated
	}
	// Odometer over the random fields, last fastest; wrapping leaves it,
	// and the random fields of the tuple, back at the first values.
	odo := make([]int, len(g.rnd))
	for _, r := range g.rnd {
		g.tuple[r.key] = r.vals[0]
	}
	for pkt := uint64(0); pkt < period; pkt++ {
		for j := range g.seq {
			g.tuple[g.seq[j].key] = g.seq[j].next()
		}
	combos:
		for {
			if set.add(g.tuple, cap) {
				return true
			}
			for i := len(odo) - 1; i >= 0; i-- {
				r := &g.rnd[i]
				if odo[i]++; odo[i] < len(r.vals) {
					g.tuple[r.key] = r.vals[odo[i]]
					continue combos
				}
				odo[i], g.tuple[r.key] = 0, r.vals[0]
			}
			break // the odometer wrapped: every combination emitted
		}
	}
	return truncated
}

// TupleMatrix holds distinct tuples in first-appearance order as one
// row-major matrix, deduplicated by an open-addressed index over its rows:
// one probe sequence answers "seen?" and finds the insertion slot. Row
// numbers never change, so per-tuple state lives in slices parallel to the
// rows — the runtime's counter tables (htpr) label register cells and keep
// their CPU-side aggregates that way.
type TupleMatrix struct {
	width, n int
	rows     []uint64 // n rows of width words
	index    []int32  // row number + 1, 0 = empty; at most half full
}

// NewTupleMatrix returns an empty matrix of width-word tuples with room for
// capacity rows; it grows past that on demand.
func NewTupleMatrix(width, capacity int) *TupleMatrix {
	capacity = max(capacity, 0)
	size := 16
	for size < 2*capacity {
		size <<= 1
	}
	return &TupleMatrix{
		width: width,
		rows:  make([]uint64, 0, capacity*width),
		index: make([]int32, size),
	}
}

// Row returns row r. It aliases the matrix, which never rewrites a row.
func (m *TupleMatrix) Row(r int) []uint64 {
	return m.rows[r*m.width : (r+1)*m.width : (r+1)*m.width]
}

// slot walks t's probe sequence to the row equal to t, or to the empty index
// slot where t would go (row -1).
func (m *TupleMatrix) slot(t []uint64) (i, row int) {
	var h uint64
	for _, v := range t {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	for i = home(h, len(m.index)); ; i = next(i, len(m.index)) {
		r := int(m.index[i])
		if r == 0 {
			return i, -1
		}
		if slices.Equal(m.rows[(r-1)*m.width:r*m.width], t) {
			return i, r - 1
		}
	}
}

// Find returns the row equal to t, or -1.
func (m *TupleMatrix) Find(t []uint64) int {
	_, row := m.slot(t)
	return row
}

// Probe returns the row equal to t, appending t as a new row when there is
// none.
func (m *TupleMatrix) Probe(t []uint64) (row int, added bool) {
	if len(t) != m.width {
		panic(fmt.Sprintf("compiler: %d-word tuple in a %d-wide matrix", len(t), m.width))
	}
	i, row := m.slot(t)
	if row >= 0 {
		return row, false
	}
	if 2*(m.n+1) > len(m.index) {
		m.grow()
		i, _ = m.slot(t)
	}
	m.rows = append(m.rows, t...)
	m.n++
	m.index[i] = int32(m.n)
	return m.n - 1, true
}

// grow doubles the index and re-files every row.
func (m *TupleMatrix) grow() {
	m.index = make([]int32, 2*len(m.index))
	for r := 0; r < m.n; r++ {
		i, _ := m.slot(m.rows[r*m.width : (r+1)*m.width])
		m.index[i] = int32(r + 1)
	}
}

// add appends t unless a row already equals it, and reports whether t is
// new but limit rows are already held (t is then not added).
func (m *TupleMatrix) add(t []uint64, limit int) (full bool) {
	if m.n < limit {
		m.Probe(t)
		return false
	}
	return m.Find(t) < 0
}

// distinctValues returns vals' distinct values in first-appearance order.
func distinctValues(vals []uint64) []uint64 {
	m := NewTupleMatrix(1, len(vals))
	for i := range vals {
		m.add(vals[i:i+1], len(vals))
	}
	return m.rows
}

// ValueAt returns the editor's output for this modification at a given
// packet ID (sequence kinds only).
func (m *FieldMod) ValueAt(pktID uint64) uint64 {
	switch m.Kind {
	case ModList:
		return m.List[pktID%uint64(len(m.List))]
	case ModProgression:
		n := m.StreamLen()
		return m.Start + m.Step*(pktID%n)
	case ModConst:
		return m.Const
	}
	return 0
}

// fieldMatches reports whether a modification of mod affects key reads of
// want: exact match, or an L4 union field covering its TCP/UDP alias.
func fieldMatches(want, mod asic.Field) bool {
	if want == mod {
		return true
	}
	switch want {
	case asic.FieldL4SrcPort:
		return mod == asic.FieldTCPSrcPort || mod == asic.FieldUDPSrcPort
	case asic.FieldL4DstPort:
		return mod == asic.FieldTCPDstPort || mod == asic.FieldUDPDstPort
	}
	return false
}

// reverseField maps a key field to its response-direction counterpart.
func reverseField(f asic.Field) asic.Field {
	switch f {
	case asic.FieldIPv4Src:
		return asic.FieldIPv4Dst
	case asic.FieldIPv4Dst:
		return asic.FieldIPv4Src
	case asic.FieldTCPSrcPort:
		return asic.FieldTCPDstPort
	case asic.FieldTCPDstPort:
		return asic.FieldTCPSrcPort
	case asic.FieldUDPSrcPort:
		return asic.FieldUDPDstPort
	case asic.FieldUDPDstPort:
		return asic.FieldUDPSrcPort
	case asic.FieldL4SrcPort:
		return asic.FieldL4DstPort
	case asic.FieldL4DstPort:
		return asic.FieldL4SrcPort
	}
	return f
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcmSat returns lcm(a, b), saturated at limit+1: three long coprime
// progressions would otherwise wrap uint64 into an arbitrary period.
func lcmSat(a, b, limit uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	q := b / gcd(a, b)
	if a > limit/q {
		return limit + 1
	}
	return a * q
}
