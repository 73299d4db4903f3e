package asic

import "encoding/binary"

// Hash units. Tofino pipelines compute hashes with CRC engines whose
// polynomial is selectable per unit; HyperTester's cuckoo arrays and flow
// digests need several independent functions over the same key bytes. We
// implement reflected CRC-32 with a configurable polynomial, truncated to
// the requested width — the same family the hardware offers.

// HashUnit is one configured CRC engine.
type HashUnit struct {
	name  string
	table *crcTable // shared read-only between units of one polynomial
}

// crcTable holds the slicing-by-8 tables of one reflected polynomial:
// t[0] is the bytewise table, and t[k][b] is the CRC of byte b followed by
// k zero bytes, so eight bytes fold into the register with eight
// independent lookups.
type crcTable [8][256]uint32

// Standard polynomials (reflected form) available to pipelines.
const (
	PolyCRC32   = 0xEDB88320 // CRC-32 (Ethernet)
	PolyCRC32C  = 0x82F63B78 // CRC-32C (Castagnoli)
	PolyKoopman = 0xEB31D82E // CRC-32K
	PolyQ       = 0xD5828281 // CRC-32Q (reflected)
)

// standardTables are built once, so a unit over a standard polynomial
// costs one small allocation; any other polynomial gets its own tables.
var standardTables = map[uint32]*crcTable{
	PolyCRC32:   makeCRCTable(PolyCRC32),
	PolyCRC32C:  makeCRCTable(PolyCRC32C),
	PolyKoopman: makeCRCTable(PolyKoopman),
	PolyQ:       makeCRCTable(PolyQ),
}

func makeCRCTable(poly uint32) *crcTable {
	t := new(crcTable)
	for i := range t[0] {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		t[0][i] = crc
	}
	for k := 1; k < 8; k++ {
		for i := range t[k] {
			prev := t[k-1][i]
			t[k][i] = t[0][byte(prev)] ^ prev>>8
		}
	}
	return t
}

// NewHashUnit builds a CRC engine for the given reflected polynomial.
func NewHashUnit(name string, poly uint32) *HashUnit {
	t, ok := standardTables[poly]
	if !ok {
		t = makeCRCTable(poly)
	}
	return &HashUnit{name: name, table: t}
}

// Sum computes the CRC of data: eight bytes per step, then four, then the
// tail bytewise.
func (h *HashUnit) Sum(data []byte) uint32 {
	t := h.table
	crc := ^uint32(0)
	for ; len(data) >= 8; data = data[8:] {
		crc ^= binary.LittleEndian.Uint32(data)
		crc = t[7][byte(crc)] ^ t[6][byte(crc>>8)] ^ t[5][byte(crc>>16)] ^ t[4][crc>>24] ^
			t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]
	}
	if len(data) >= 4 {
		crc ^= binary.LittleEndian.Uint32(data)
		crc = t[3][byte(crc)] ^ t[2][byte(crc>>8)] ^ t[1][byte(crc>>16)] ^ t[0][crc>>24]
		data = data[4:]
	}
	for _, b := range data {
		crc = t[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// Index hashes data into [0, buckets).
func (h *HashUnit) Index(data []byte, buckets int) int {
	return int(h.Sum(data) % uint32(buckets))
}

// Digest hashes data down to width bits (1..32), the partial-key digest the
// counter-based algorithm stores instead of full keys (§5.2).
func (h *HashUnit) Digest(data []byte, width int) uint32 {
	if width >= 32 {
		return h.Sum(data)
	}
	return h.Sum(data) & (1<<uint(width) - 1)
}
