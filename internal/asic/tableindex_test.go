package asic

import (
	"math/rand"
	"testing"
)

// lookupTernaryLinear is the pre-index scan, the reference oracle of the
// differential tests below. The entries slice must already be sorted.
func (t *Table) lookupTernaryLinear(keys []uint64) (int, bool) {
	for i := range t.ternary {
		e := &t.ternary[i]
		match := true
		for j := range keys {
			if keys[j]&e.mask[j] != e.value[j]&e.mask[j] {
				match = false
				break
			}
		}
		if match {
			return i, true
		}
	}
	return 0, false
}

// lookupRangeLinear is the pre-index scan, the reference oracle of the
// differential tests below. The entries slice must already be sorted.
func (t *Table) lookupRangeLinear(key uint64) (int, bool) {
	for i := range t.ranges {
		e := &t.ranges[i]
		if key >= e.lo && key <= e.hi {
			return i, true
		}
	}
	return 0, false
}

// randTernaryTable fills a ternary table with n random entries.
func randTernaryTable(t *testing.T, rng *rand.Rand, n int) *Table {
	tbl := NewTable("diff-tern", MatchTernary, FieldIPv4Dst, FieldIPv4Proto)
	addRandTernary(t, rng, tbl, n)
	return tbl
}

// addRandTernary adds n entries with a mix of structured masks (shared mask
// shapes, as real compilers emit), overlapping priorities, and the
// occasional catch-all that zeroes the common mask.
func addRandTernary(t *testing.T, rng *rand.Rand, tbl *Table, n int) {
	t.Helper()
	maskShapes := [][]uint64{
		{0xffffffff, 0xff},
		{0xffffff00, 0xff},
		{0xffff0000, 0},
		{0xff000000, 0xff},
	}
	for i := 0; i < n; i++ {
		mask := maskShapes[rng.Intn(len(maskShapes))]
		if rng.Intn(16) == 0 {
			mask = []uint64{0, 0} // catch-all: degrades the prefilter to a scan
		}
		value := []uint64{rng.Uint64() & 0xffffffff, rng.Uint64() & 0xff}
		if err := tbl.AddTernary(value, mask, rng.Intn(8), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTernaryIndexMatchesLinearScan drives randomized tables and keys
// through both the indexed lookup and the retained linear-scan oracle,
// asserting they pick the identical entry, including across interleaved
// inserts that force index rebuilds.
func TestTernaryIndexMatchesLinearScan(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		tbl := randTernaryTable(t, rng, 1+rng.Intn(64))
		probe := func() {
			tbl.ensureIndex()
			for q := 0; q < 200; q++ {
				keys := []uint64{rng.Uint64() & 0xffffffff, rng.Uint64() & 0xff}
				if rng.Intn(2) == 0 && len(tbl.ternary) > 0 {
					// Bias half the probes toward installed values so hits
					// are exercised, not just misses.
					e := &tbl.ternary[rng.Intn(len(tbl.ternary))]
					keys = []uint64{e.value[0], e.value[1]}
				}
				gi, gok := tbl.lookupTernary(keys)
				wi, wok := tbl.lookupTernaryLinear(keys)
				if gok != wok || (gok && gi != wi) {
					t.Fatalf("trial %d: key %x: indexed (%d,%v) != linear (%d,%v)",
						trial, keys, gi, gok, wi, wok)
				}
			}
		}
		probe()
		// Add a few entries after the lookups (marking the index dirty) and
		// re-probe.
		addRandTernary(t, rng, tbl, 5)
		if !tbl.dirty {
			t.Fatal("AddTernary after a lookup left the index clean")
		}
		probe()
	}
}

// TestRangeIndexMatchesLinearScan does the same for range tables: random
// overlapping intervals with random priorities, probed at boundaries and
// random points, before and after further inserts.
func TestRangeIndexMatchesLinearScan(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 500))
		tbl := NewTable("diff-range", MatchRange, FieldTCPDstPort)
		addRanges := func(n int) {
			for i := 0; i < n; i++ {
				lo := rng.Uint64() & 0xffff
				hi := lo + uint64(rng.Intn(1024))
				if rng.Intn(16) == 0 {
					hi = ^uint64(0) // open-ended tail entry
				}
				if err := tbl.AddRange(lo, hi, rng.Intn(8), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		addRanges(1 + rng.Intn(64))
		probe := func() {
			tbl.ensureIndex()
			check := func(key uint64) {
				gi, gok := tbl.lookupRange(key)
				wi, wok := tbl.lookupRangeLinear(key)
				if gok != wok || (gok && gi != wi) {
					t.Fatalf("trial %d: key %d: indexed (%d,%v) != linear (%d,%v)",
						trial, key, gi, gok, wi, wok)
				}
			}
			for q := 0; q < 200; q++ {
				check(rng.Uint64() & 0x1ffff)
			}
			// Boundaries are where an off-by-one in the elementary-interval
			// index would hide.
			for i := range tbl.ranges {
				e := &tbl.ranges[i]
				check(e.lo)
				check(e.hi)
				if e.lo > 0 {
					check(e.lo - 1)
				}
				if e.hi < ^uint64(0) {
					check(e.hi + 1)
				}
			}
			check(0)
			check(^uint64(0))
		}
		probe()
		addRanges(5)
		if !tbl.dirty {
			t.Fatal("AddRange after a lookup left the index clean")
		}
		probe()
	}
}

// TestTableApplyZeroAllocs pins that indexed Apply stays off the heap for
// all three match kinds.
func TestTableApplyZeroAllocs(t *testing.T) {
	p := tcpPHV(t, 1, 80, 0)

	exact := NewTable("z-exact", MatchExact, FieldTCPDstPort)
	if err := exact.AddExact([]uint64{80}, nil); err != nil {
		t.Fatal(err)
	}
	tern := NewTable("z-tern", MatchTernary, FieldTCPDstPort, FieldTCPSrcPort)
	if err := tern.AddTernary([]uint64{80, 0}, []uint64{0xffff, 0}, 1, nil); err != nil {
		t.Fatal(err)
	}
	rng := NewTable("z-range", MatchRange, FieldTCPDstPort)
	if err := rng.AddRange(1, 1024, 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tbl  *Table
	}{{"exact", exact}, {"ternary", tern}, {"range", rng}} {
		tbl := tc.tbl
		tbl.Apply(p) // build the index outside the measurement
		if avg := testing.AllocsPerRun(200, func() { tbl.Apply(p) }); avg != 0 {
			t.Fatalf("%s Apply allocates %v allocs/op, want 0", tc.name, avg)
		}
	}
}

// BenchmarkTernaryPopulate measures table population cost — the pattern
// that used to re-sort on every insert.
func BenchmarkTernaryPopulate(b *testing.B) {
	const n = 512
	value := []uint64{0x0a000000, 6}
	mask := []uint64{0xffffff00, 0xff}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := NewTable("pop", MatchTernary, FieldIPv4Dst, FieldIPv4Proto)
		for j := 0; j < n; j++ {
			if err := tbl.AddTernary(value, mask, j&7, nil); err != nil {
				b.Fatal(err)
			}
		}
		tbl.ensureIndex()
	}
}

// BenchmarkTernaryLookup compares the indexed lookup against the linear
// oracle on a 512-entry table.
func BenchmarkTernaryLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tbl := NewTable("lk", MatchTernary, FieldIPv4Dst, FieldIPv4Proto)
	for j := 0; j < 512; j++ {
		value := []uint64{rng.Uint64() & 0xffffffff, 6}
		if err := tbl.AddTernary(value, []uint64{0xffffffff, 0xff}, j&7, nil); err != nil {
			b.Fatal(err)
		}
	}
	tbl.ensureIndex()
	keys := []uint64{tbl.ternary[300].value[0], 6}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.lookupTernary(keys)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl.lookupTernaryLinear(keys)
		}
	})
}

// BenchmarkRangeLookup compares the interval index against the linear scan.
func BenchmarkRangeLookup(b *testing.B) {
	tbl := NewTable("lk", MatchRange, FieldTCPDstPort)
	for j := 0; j < 512; j++ {
		lo := uint64(j * 128)
		if err := tbl.AddRange(lo, lo+63, j&7, nil); err != nil {
			b.Fatal(err)
		}
	}
	tbl.ensureIndex()
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.lookupRange(300 * 128)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl.lookupRangeLinear(300 * 128)
		}
	})
}
