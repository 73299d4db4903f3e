package asic

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestHashUnitMatchesStdlibCRC holds the slicing-by-8 Sum, and Index and
// Digest built on it, to hash/crc32 for every standard polynomial, for
// every length 0-64 and at every alignment of the input within a buffer:
// the 8-byte, 4-byte and bytewise steps all meet every residue.
func TestHashUnitMatchesStdlibCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	buf := make([]byte, 64+8)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	for _, poly := range []uint32{PolyCRC32, PolyCRC32C, PolyKoopman, PolyQ, 0x04C11DB7} {
		h := NewHashUnit("t", poly)
		ref := crc32.MakeTable(poly)
		for off := 0; off < 8; off++ {
			for n := 0; n <= 64; n++ {
				b := buf[off : off+n]
				want := crc32.Checksum(b, ref)
				if got := h.Sum(b); got != want {
					t.Fatalf("poly %#x len %d offset %d: Sum = %#x, want %#x", poly, n, off, got, want)
				}
				for _, buckets := range []int{1, 7, 1 << 14, 1<<31 - 1} {
					if got := h.Index(b, buckets); got != int(want%uint32(buckets)) {
						t.Fatalf("poly %#x len %d offset %d: Index(%d) = %d, want %d", poly, n, off, buckets, got, want%uint32(buckets))
					}
				}
				for width := 1; width <= 32; width++ {
					mask := uint32(1)<<uint(width) - 1
					if width == 32 {
						mask = ^uint32(0)
					}
					if got := h.Digest(b, width); got != want&mask {
						t.Fatalf("poly %#x len %d offset %d: Digest(%d) = %#x, want %#x", poly, n, off, width, got, want&mask)
					}
				}
			}
		}
	}
}

// TestHashUnitsSharePolynomialTables: units over one standard polynomial
// share its tables, so building one stays cheap.
func TestHashUnitsSharePolynomialTables(t *testing.T) {
	a, b := NewHashUnit("a", PolyCRC32C), NewHashUnit("b", PolyCRC32C)
	if a.table != b.table {
		t.Fatal("two CRC-32C units built separate tables")
	}
	if allocs := testing.AllocsPerRun(100, func() { NewHashUnit("c", PolyKoopman) }); allocs > 1 {
		t.Fatalf("NewHashUnit over a standard polynomial: %.0f allocs, want 1", allocs)
	}
}
