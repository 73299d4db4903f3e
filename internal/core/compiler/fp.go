package compiler

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"github.com/hypertester/hypertester/internal/asic"
)

// CuckooSlots computes a key's two candidate slots and its stored digest
// under partial-key cuckoo hashing (Fan et al., the paper's [70]): the
// alternate slot derives from the primary slot and the digest alone, so the
// data plane can relocate an entry knowing only what the cell stores.
// arraySize must be a power of two.
//
// This function is the single source of truth shared by the compiler's
// false-positive precomputation and the runtime's counter table — they must
// agree bit-for-bit or precomputed exact entries would not cover runtime
// collisions.
func CuckooSlots(key []byte, arraySize, digestBits int, h1, hd, halt *asic.HashUnit) (idx1, idx2 int, digest uint32) {
	mask := arraySize - 1
	digest = hd.Digest(key, digestBits)
	if digest == 0 {
		digest = 1 // zero marks an empty cell
	}
	idx1 = int(h1.Sum(key)) & mask
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], digest)
	idx2 = (idx1 ^ int(halt.Sum(db[:]))) & mask
	return idx1, idx2, digest
}

// AltSlot returns the other candidate slot for an entry, from the slot it
// occupies and its digest — the relocation step of partial-key cuckoo.
func AltSlot(idx int, digest uint32, arraySize int, halt *asic.HashUnit) int {
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], digest)
	return (idx ^ int(halt.Sum(db[:]))) & (arraySize - 1)
}

// ExactKeyKernel finds the keys that would collide in the runtime's counter
// table — a candidate slot and stored digest equal to an earlier key's — and
// therefore need entries in the exact-key-matching table to keep
// reduce/distinct free of false positives (§5.2, Fig. 17). For each
// colliding pair only the later key needs an exact entry: lookups for it
// would otherwise hit the earlier key's (slot, digest) cell.
//
// Hashing the keys is separate from finding collisions, so one hashed
// population answers several (array size, digest width) questions; the
// buffers are reused across calls. Not safe for concurrent use.
type ExactKeyKernel struct {
	h1, halt, hd *asic.HashUnit
	kbuf         []byte
	sums         []uint64 // per key: array-1 CRC << 32 | digest CRC
	set          []uint32 // scratch table: a key space's dedup index, then ExactRows' cell set
}

// NewExactKeyKernel returns a kernel for the given hash polynomials.
func NewExactKeyKernel(polyA1, polyA2, polyDigest uint32) *ExactKeyKernel {
	k := &ExactKeyKernel{}
	k.setPolys(polyA1, polyA2, polyDigest)
	return k
}

func (k *ExactKeyKernel) setPolys(polyA1, polyA2, polyDigest uint32) {
	k.h1 = asic.NewHashUnit("fp-a1", polyA1)
	k.halt = asic.NewHashUnit("fp-alt", polyA2)
	k.hd = asic.NewHashUnit("fp-digest", polyDigest)
}

// sum encodes t and returns its CRC pair, as stored in sums.
func (k *ExactKeyKernel) sum(t []uint64) uint64 {
	k.kbuf = AppendKey(k.kbuf[:0], t)
	return uint64(k.h1.Sum(k.kbuf))<<32 | uint64(k.hd.Sum(k.kbuf))
}

// scratch makes the scratch table n zeroed words long, reusing its array
// when it is large enough and dropping it before allocating otherwise.
func (k *ExactKeyKernel) scratch(n int) {
	if cap(k.set) < n {
		k.set = nil
		k.set = make([]uint32, n)
		return
	}
	k.set = k.set[:n]
	clear(k.set)
}

// Hash replaces the kernel's population with the rows of a row-major key
// matrix, width words per key.
func (k *ExactKeyKernel) Hash(rows []uint64, width int) {
	k.sums = slices.Grow(k.sums[:0], len(rows)/width)
	for off := 0; off < len(rows); off += width {
		k.sums = append(k.sums, k.sum(rows[off:off+width]))
	}
}

// ExactRows returns, in order, the row numbers of the hashed keys that need
// exact entries under the given table geometry. It must agree
// with CuckooSlots bit for bit: a digestBits-wide digest is the low bits of
// the digest CRC, and the candidate slots follow from the two CRCs alone.
func (k *ExactKeyKernel) ExactRows(arraySize, digestBits int) (rows []int) {
	digestMask := ^uint32(0)
	if digestBits < 32 {
		digestMask = 1<<uint(digestBits) - 1
	}
	// Occupied (slot, digest) cells, packed slot<<db | digest into an
	// open-addressed set: one word per cell when slot and digest bits fit
	// in 32 (2^14 slots and 16-bit digests do), else two. A stored digest
	// is never 0 (zero marks an empty runtime cell), so a packed cell is
	// never 0 and 0 can mark empty probe slots here too. Sized for <=50%
	// load at two cells per key, probed linearly from the home slot.
	db := uint(bits.Len32(digestMask))
	wide := bits.Len(uint(arraySize-1))+int(db) > 32
	size := max(16, 4*len(k.sums))
	if wide {
		k.scratch(2 * size)
	} else {
		k.scratch(size)
	}
	set := k.set
	// claim records c if absent and reports whether it was already present.
	claim := func(c uint64) bool {
		for h := home(c, size); ; h = next(h, size) {
			var v uint64
			if wide {
				v = uint64(set[2*h])<<32 | uint64(set[2*h+1])
			} else {
				v = uint64(set[h])
			}
			switch v {
			case 0:
				if wide {
					set[2*h], set[2*h+1] = uint32(c>>32), uint32(c)
				} else {
					set[h] = uint32(c)
				}
				return false
			case c:
				return true
			}
		}
	}

	for r, s := range k.sums {
		d := uint32(s) & digestMask
		if d == 0 {
			d = 1
		}
		idx1 := int(s>>32) & (arraySize - 1)
		idx2 := AltSlot(idx1, d, arraySize, k.halt)
		// Claim both candidate cells in order; either being taken (including
		// by this key's own first claim, when idx1 == idx2) means a runtime
		// lookup could land on a foreign cell, so the key needs exact-match
		// coverage.
		taken := claim(uint64(idx1)<<db | uint64(d))
		if claim(uint64(idx2)<<db|uint64(d)) || taken {
			rows = append(rows, r)
		}
	}
	return rows
}

// home maps a key to its home slot in an open-addressed table of size
// slots: Fibonacci-mixed, then scaled to the size, which need not be a power
// of two.
func home(key uint64, size int) int {
	return int((key * 0x9e3779b97f4a7c15 >> 32) * uint64(size) >> 32)
}

// next is the slot after h in a linear probe of a table of size slots.
func next(h, size int) int {
	if h++; h == size {
		return 0
	}
	return h
}

// ExactKeys hashes a row-major key matrix and returns copies of the rows
// that need exact entries.
func (k *ExactKeyKernel) ExactKeys(rows []uint64, width, arraySize, digestBits int) [][]uint64 {
	k.Hash(rows, width)
	return copyRows(rows, width, k.ExactRows(arraySize, digestBits))
}

// copyRows returns copies of the listed rows of a row-major matrix, backed
// by one array.
func copyRows(rows []uint64, width int, need []int) [][]uint64 {
	out := make([][]uint64, len(need))
	backing := make([]uint64, 0, len(need)*width)
	for i, r := range need {
		n := len(backing)
		backing = append(backing, rows[r*width:(r+1)*width]...)
		out[i] = backing[n:len(backing):len(backing)]
	}
	return out
}

// ComputeExactKeys is ExactKeyKernel for a population held as one slice per
// key; it returns the colliding slices themselves.
func ComputeExactKeys(tuples [][]uint64, arraySize, digestBits int, polyA1, polyA2, polyDigest uint32) [][]uint64 {
	k := NewExactKeyKernel(polyA1, polyA2, polyDigest)
	k.sums = make([]uint64, 0, len(tuples))
	for _, t := range tuples {
		k.sums = append(k.sums, k.sum(t))
	}
	need := k.ExactRows(arraySize, digestBits)
	out := make([][]uint64, len(need))
	for i, r := range need {
		out[i] = tuples[r]
	}
	return out
}

// EncodeKey serializes a key tuple into hash-input bytes, the canonical
// form shared by the compiler's precomputation and the runtime's lookups.
func EncodeKey(t []uint64) []byte {
	return AppendKey(make([]byte, 0, 8*len(t)), t)
}

// AppendKey appends t's canonical hash-input encoding to dst and returns the
// extended slice, letting hot loops reuse one buffer across keys.
func AppendKey(dst []byte, t []uint64) []byte {
	for _, v := range t {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}
