// Package sketch implements the probabilistic structures Sonata compiles
// reduce and distinct to — a Count-Min sketch and a Bloom filter. They are
// the accuracy baseline HyperTester's counter-based algorithm (exact key
// matching + cuckoo hashing) is designed to beat: sketches answer within
// fixed memory but with one-sided error, which §5.2 argues is unacceptable
// for test-statistic queries.
package sketch

import (
	"encoding/binary"

	"github.com/hypertester/hypertester/internal/asic"
)

// CountMin is a Count-Min sketch: d rows of w counters; updates add to one
// counter per row, queries take the minimum (never underestimates).
type CountMin struct {
	rows    [][]uint64
	hashers []*asic.HashUnit
	width   int
}

var polys = []uint32{asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman, asic.PolyQ}

// NewCountMin builds a d×w sketch (d ≤ 4, one CRC engine per row).
func NewCountMin(depth, width int) *CountMin {
	if depth < 1 {
		depth = 1
	}
	if depth > len(polys) {
		depth = len(polys)
	}
	cm := &CountMin{width: width}
	for i := 0; i < depth; i++ {
		cm.rows = append(cm.rows, make([]uint64, width))
		cm.hashers = append(cm.hashers, asic.NewHashUnit("cm", polys[i]))
	}
	return cm
}

// Add increments key's estimate by delta.
func (cm *CountMin) Add(key []byte, delta uint64) {
	for i, h := range cm.hashers {
		cm.rows[i][h.Index(key, cm.width)] += delta
	}
}

// Estimate returns the (over-)estimate for key.
func (cm *CountMin) Estimate(key []byte) uint64 {
	min := ^uint64(0)
	for i, h := range cm.hashers {
		if v := cm.rows[i][h.Index(key, cm.width)]; v < min {
			min = v
		}
	}
	return min
}

// Bloom is a Bloom filter with k hash functions over m bits.
type Bloom struct {
	bits    []uint64
	m       int
	hashers []*asic.HashUnit
}

// NewBloom builds a filter of m bits with k ≤ 4 hash functions.
func NewBloom(m, k int) *Bloom {
	if k < 1 {
		k = 1
	}
	if k > len(polys) {
		k = len(polys)
	}
	b := &Bloom{bits: make([]uint64, (m+63)/64), m: m}
	for i := 0; i < k; i++ {
		b.hashers = append(b.hashers, asic.NewHashUnit("bloom", polys[i]))
	}
	return b
}

func (b *Bloom) idx(h *asic.HashUnit, key []byte, salt uint32) int {
	// Salt then key; room for a 5-tuple on the stack, longer keys spill to
	// the heap.
	var buf [32]byte
	binary.LittleEndian.PutUint32(buf[:4], salt)
	return int(h.Sum(append(buf[:4], key...)) % uint32(b.m))
}

// AddIfNew inserts key and reports whether it was (probably) new — the
// semantics distinct needs: true at most once per key, but possibly false
// for a genuinely new key (false positive).
func (b *Bloom) AddIfNew(key []byte) bool {
	isNew := false
	for i, h := range b.hashers {
		pos := b.idx(h, key, uint32(i))
		if b.bits[pos/64]&(1<<uint(pos%64)) == 0 {
			isNew = true
			b.bits[pos/64] |= 1 << uint(pos%64)
		}
	}
	return isNew
}
