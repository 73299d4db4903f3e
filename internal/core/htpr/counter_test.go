package htpr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
)

func testPlan(kind ntapi.QueryKind, fn ntapi.AggFunc, arraySize, digestBits int) *compiler.QueryPlan {
	return &compiler.QueryPlan{
		ID:         1,
		Query:      &ntapi.Query{Name: "Q1"},
		Kind:       kind,
		Func:       fn,
		Keys:       []asic.Field{asic.FieldIPv4Src},
		DigestBits: digestBits,
		ArraySize:  arraySize,
		PolyArray1: asic.PolyCRC32,
		PolyArray2: asic.PolyCRC32C,
		PolyDigest: asic.PolyKoopman,
	}
}

func TestCounterTableSumExact(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggSum, 1<<10, 16))
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(200))
		v := uint64(rng.Intn(100) + 1)
		ct.Update([]uint64{k}, v)
		truth[k] += v
		if i%7 == 0 {
			ct.DrainOne() // template packets drain as traffic flows
		}
	}
	results := ct.Collect()
	if len(results) != len(truth) {
		t.Fatalf("keys = %d, want %d", len(results), len(truth))
	}
	for _, r := range results {
		if truth[r.Key[0]] != r.Value {
			t.Fatalf("key %d: sum %d, want %d", r.Key[0], r.Value, truth[r.Key[0]])
		}
	}
}

func TestCounterTableCount(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<10, 16))
	for i := 0; i < 300; i++ {
		ct.Update([]uint64{uint64(i % 3)}, 99) // delta ignored for count
	}
	for _, r := range ct.Collect() {
		if r.Value != 100 {
			t.Fatalf("key %d count = %d, want 100", r.Key[0], r.Value)
		}
	}
}

func TestCounterTableMaxMin(t *testing.T) {
	ctMax := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggMax, 1<<8, 16))
	ctMin := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggMin, 1<<8, 16))
	for _, v := range []uint64{17, 3, 99, 40} {
		ctMax.Update([]uint64{1}, v)
		ctMin.Update([]uint64{1}, v)
	}
	if r := ctMax.Collect(); r[0].Value != 99 {
		t.Fatalf("max = %d", r[0].Value)
	}
	if r := ctMin.Collect(); r[0].Value != 3 {
		t.Fatalf("min = %d", r[0].Value)
	}

	// A minimum of 0 must survive the merging of partial aggregates: 64
	// keys over 4-slot arrays force every merge path (drain onto a placed
	// cell, FIFO overflow, eviction, collection), and each key's values
	// run base..base+4, so base 0 makes the true minimum 0.
	for _, base := range []uint64{0, 1} {
		ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggMin, 4, 16))
		for v := base + 4; ; v-- {
			for k := uint64(0); k < 64; k++ {
				ct.Update([]uint64{k}, v)
			}
			ct.DrainOne()
			if v == base {
				break
			}
		}
		results := ct.Collect()
		if len(results) != 64 {
			t.Fatalf("base %d: %d keys, want 64", base, len(results))
		}
		for _, r := range results {
			if r.Value != base {
				t.Errorf("base %d: key %d min = %d, want %d", base, r.Key[0], r.Value, base)
			}
		}
	}
}

func TestCounterTableDistinct(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindDistinct, ntapi.AggCount, 1<<12, 16))
	rng := rand.New(rand.NewSource(9))
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(700))
		ct.Update([]uint64{k}, 1)
		seen[k] = true
		if i%5 == 0 {
			ct.DrainOne()
		}
	}
	if got := ct.DistinctCount(); got != len(seen) {
		t.Fatalf("distinct = %d, want %d", got, len(seen))
	}
}

func TestCounterTableOverloadEvictsToCPU(t *testing.T) {
	// Far more keys than slots: FIFO fills, relocation fails, entries must
	// flow to the CPU — and the total must stay exact.
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<6, 16))
	rng := rand.New(rand.NewSource(11))
	truth := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 2000
		ct.Update([]uint64{k}, 1)
		truth[k]++
	}
	if ct.Evictions == 0 {
		t.Fatal("expected evictions under 31x overload")
	}
	var total, want uint64
	for _, r := range ct.Collect() {
		total += r.Value
	}
	for _, v := range truth {
		want += v
	}
	if total != want {
		t.Fatalf("total = %d, want %d (no updates may be lost)", total, want)
	}
}

func TestCounterTableExactKeysIsolated(t *testing.T) {
	// Keys installed as exact-match entries must bypass the arrays
	// entirely and count precisely.
	plan := testPlan(ntapi.KindReduce, ntapi.AggSum, 1<<8, 8)
	plan.ExactKeys = [][]uint64{{42}, {77}}
	ct := NewCounterTable(plan)
	ct.Update([]uint64{42}, 5)
	ct.Update([]uint64{42}, 5)
	ct.Update([]uint64{77}, 1)
	ct.Update([]uint64{1}, 3)
	if ct.ExactHits != 3 {
		t.Fatalf("exact hits = %d, want 3", ct.ExactHits)
	}
	vals := map[uint64]uint64{}
	for _, r := range ct.Collect() {
		vals[r.Key[0]] = r.Value
	}
	if vals[42] != 10 || vals[77] != 1 || vals[1] != 3 {
		t.Fatalf("values = %v", vals)
	}
}

func TestNoFalsePositivesWithPrecomputedExact(t *testing.T) {
	// The §5.2 guarantee, end to end: enumerate a key population, let the
	// compiler precompute exact entries, then feed every key — per-key
	// counts must be exact even where digests collide.
	const n = 60000
	rng := rand.New(rand.NewSource(13))
	keys := make([][]uint64, n)
	for i := range keys {
		keys[i] = []uint64{rng.Uint64() & 0xffffffff}
	}
	plan := testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<12, 12)
	plan.ExactKeys = compiler.ComputeExactKeys(keys, plan.ArraySize, plan.DigestBits,
		plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
	if len(plan.ExactKeys) == 0 {
		t.Fatal("expected precomputed collisions at this density")
	}
	ct := NewCounterTable(plan)
	truth := map[uint64]uint64{}
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			ct.Update(k, 1)
			truth[k[0]]++
			ct.DrainOne()
		}
	}
	bad := 0
	for _, r := range ct.Collect() {
		if truth[r.Key[0]] != r.Value {
			bad++
		}
	}
	if bad != 0 {
		t.Fatalf("%d keys with wrong counts: false positives slipped through", bad)
	}
}

func TestDrainOnEmptyFIFO(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggSum, 1<<8, 16))
	if ct.DrainOne() {
		t.Fatal("drain on empty FIFO reported work")
	}
}

// Property: for any update sequence, collected totals equal the ground
// truth (counter-based queries are exact — the paper's core claim).
func TestExactnessProperty(t *testing.T) {
	f := func(keysRaw []uint8, drainEvery uint8) bool {
		ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<7, 16))
		truth := map[uint64]uint64{}
		de := int(drainEvery%5) + 1
		for i, kr := range keysRaw {
			k := uint64(kr)
			ct.Update([]uint64{k}, 1)
			truth[k]++
			if i%de == 0 {
				ct.DrainOne()
			}
		}
		for _, r := range ct.Collect() {
			if truth[r.Key[0]] != r.Value {
				return false
			}
		}
		return len(ct.Collect()) == len(truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
