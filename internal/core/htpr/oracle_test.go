package htpr

// The map-based counter table as it stood before the flat-row rewrite (six Go
// maps, string-encoded keys, a fresh slice per packet, FIFO pop and
// eviction), kept verbatim apart from its names as the reference
// TestCounterTableDifferential holds the live CounterTable to.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
)

// oracleTable is the data-plane structure behind one reduce or distinct
// query. The arrays store (digest, counter) in registers; full keys are
// never stored on the data plane. KV-FIFO records carry (primary slot,
// digest, count) — under partial-key cuckoo hashing that is sufficient to
// place and relocate entries without knowing the key. The shadowKeys map is
// control-plane bookkeeping only: the switch CPU can reconstruct key↔cell
// mappings because the header space is known (§5.2); it labels results and
// never influences data-plane behaviour.
type oracleTable struct {
	plan *compiler.QueryPlan

	h1, hd, halt *asic.HashUnit

	digest1, count1 *asic.RegisterArray
	digest2, count2 *asic.RegisterArray
	// touch1/touch2 record the Updates clock of each cell's last hit, so
	// the CPU can sweep out idle entries ("evict the old analysis states
	// and upload them to the switch CPU", §3.1).
	touch1, touch2 *asic.RegisterArray

	// kvFIFO buffers entries awaiting cuckoo insertion by a recirculated
	// template packet (Figure 5). Record layout: slot1, digest, count.
	kvFIFO *stateless.FIFO

	// keyDir labels cells for the CPU: (primary slot, digest) -> key.
	// Among non-exact keys the pair is unique by construction (colliding
	// keys were moved to the exact table), and the CPU can always rebuild
	// it because the header space is known (§5.2). Entries persist for
	// the task's lifetime.
	keyDir map[uint64][]uint64

	// exact maps precomputed colliding keys to dedicated counters.
	exact map[string]*oracleExactEntry

	// shadowKeys labels occupied cells for result collection:
	// array<<40 | slot -> key tuple.
	shadowKeys map[uint64][]uint64

	// evicted accumulates entries reported to the switch CPU (FIFO
	// overflow or relocation-budget eviction), keyed by encoded tuple.
	// When OnEvict is set, reports go through it instead (the push-mode
	// digest path the receiver wires up).
	evicted map[string]uint64

	// OnEvict, when non-nil, receives each evicted (key, partial
	// aggregate) instead of the internal CPU-side map.
	OnEvict func(key []uint64, value uint64)

	// Statistics.
	// Unattributed counts aggregate value the CPU could not map back to
	// a key (should stay zero; exported for verification).
	Unattributed uint64
	Updates      uint64
	ExactHits    uint64
	FIFOPushes   uint64
	FIFODrains   uint64
	Evictions    uint64 // entries reported out to the CPU
	FIFODrops    uint64 // KV-FIFO overflow (the §6.1 limitation)

	maxRelocate int
}

type oracleExactEntry struct {
	key   []uint64
	count uint64
	seen  bool
}

// newOracleTable builds the runtime structure for a reduce/distinct plan.
func newOracleTable(plan *compiler.QueryPlan) *oracleTable {
	ct := &oracleTable{
		plan:        plan,
		h1:          asic.NewHashUnit("ct-a1", plan.PolyArray1),
		halt:        asic.NewHashUnit("ct-alt", plan.PolyArray2),
		hd:          asic.NewHashUnit("ct-digest", plan.PolyDigest),
		digest1:     asic.NewRegisterArray("ct-digest1", plan.ArraySize),
		count1:      asic.NewRegisterArray("ct-count1", plan.ArraySize),
		digest2:     asic.NewRegisterArray("ct-digest2", plan.ArraySize),
		count2:      asic.NewRegisterArray("ct-count2", plan.ArraySize),
		touch1:      asic.NewRegisterArray("ct-touch1", plan.ArraySize),
		touch2:      asic.NewRegisterArray("ct-touch2", plan.ArraySize),
		kvFIFO:      stateless.New("kv-fifo", kvLayout, 1024),
		keyDir:      make(map[uint64][]uint64),
		exact:       make(map[string]*oracleExactEntry),
		shadowKeys:  make(map[uint64][]uint64),
		evicted:     make(map[string]uint64),
		maxRelocate: 8,
	}
	for _, k := range plan.ExactKeys {
		key := append([]uint64(nil), k...)
		ct.exact[string(compiler.AppendKey(nil, key))] = &oracleExactEntry{key: key}
	}
	return ct
}

func oraclePendingID(slot1 int, digest uint32) uint64 {
	return uint64(slot1)<<32 | uint64(digest)
}

func oracleCellID(array, slot int) uint64 { return uint64(array)<<40 | uint64(slot) }

// Update processes one packet's key with a value delta. For distinct
// queries the aggregate saturates at 1 (insert-if-new). It returns the
// post-update aggregate for the key, which post-reduce filters evaluate.
func (ct *oracleTable) Update(key []uint64, delta uint64) uint64 {
	ct.Updates++
	kb := compiler.AppendKey(nil, key)

	// Exact key matching first: precomputed collisions resolve here and
	// never touch the hashed arrays (Figure 4).
	if e, ok := ct.exact[string(kb)]; ok {
		ct.ExactHits++
		e.count = ct.agg(e.count, delta, !e.seen)
		e.seen = true
		return e.count
	}

	idx1, idx2, d := compiler.CuckooSlots(kb, ct.plan.ArraySize, ct.plan.DigestBits, ct.h1, ct.hd, ct.halt)

	// Hit in either array?
	if ct.digest1.Read(idx1) == uint64(d) {
		nv := ct.agg(ct.count1.Read(idx1), delta, false)
		ct.count1.Write(idx1, nv)
		ct.touch1.Write(idx1, ct.Updates)
		return nv
	}
	if ct.digest2.Read(idx2) == uint64(d) {
		nv := ct.agg(ct.count2.Read(idx2), delta, false)
		ct.count2.Write(idx2, nv)
		ct.touch2.Write(idx2, ct.Updates)
		return nv
	}
	// Miss: new key. Insert into an empty candidate slot if available.
	first := ct.agg(0, delta, true)
	if ct.digest1.Read(idx1) == 0 {
		ct.digest1.Write(idx1, uint64(d))
		ct.count1.Write(idx1, first)
		ct.touch1.Write(idx1, ct.Updates)
		ct.shadowKeys[oracleCellID(1, idx1)] = append([]uint64(nil), key...)
		return first
	}
	if ct.digest2.Read(idx2) == 0 {
		ct.digest2.Write(idx2, uint64(d))
		ct.count2.Write(idx2, first)
		ct.touch2.Write(idx2, ct.Updates)
		ct.shadowKeys[oracleCellID(2, idx2)] = append([]uint64(nil), key...)
		return first
	}
	// Both candidate slots occupied: queue the KV pair for a recirculated
	// template packet to place (Figure 5b).
	if ct.kvFIFO.Push([]uint64{uint64(idx1), uint64(d), first}) {
		ct.FIFOPushes++
		if _, dup := ct.keyDir[oraclePendingID(idx1, d)]; !dup {
			ct.keyDir[oraclePendingID(idx1, d)] = append([]uint64(nil), key...)
		}
	} else {
		// FIFO overflow: report straight to the switch CPU (§6.1).
		ct.FIFODrops++
		ct.evict(key, first)
	}
	return first
}

// agg folds a packet's delta into an aggregate.
func (ct *oracleTable) agg(old, delta uint64, isNew bool) uint64 {
	if ct.plan.Kind == ntapi.KindDistinct {
		return 1
	}
	switch ct.plan.Func {
	case ntapi.AggSum:
		return old + delta
	case ntapi.AggCount:
		return old + 1
	case ntapi.AggMax:
		if isNew || delta > old {
			return delta
		}
		return old
	case ntapi.AggMin:
		if isNew || delta < old {
			return delta
		}
		return old
	}
	return old + 1
}

// merge folds two partial aggregates of the same key together. Both must
// exist: 0 is a legitimate minimum, so "no partial yet" is the caller's to
// know (mergeInto), not a value.
func (ct *oracleTable) merge(a, b uint64) uint64 {
	if ct.plan.Kind == ntapi.KindDistinct {
		return 1
	}
	switch ct.plan.Func {
	case ntapi.AggMax:
		if b > a {
			return b
		}
		return a
	case ntapi.AggMin:
		if b < a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// mergeInto folds a partial aggregate into m[kb]; a key's first partial is
// stored as it is.
func (ct *oracleTable) mergeInto(m map[string]uint64, kb string, v uint64) {
	if old, ok := m[kb]; ok {
		v = ct.merge(old, v)
	}
	m[kb] = v
}

// DrainOne performs one FIFO pop and cuckoo insertion — the work a
// recirculated template packet does per pass (Figure 5). It reports whether
// anything was drained.
func (ct *oracleTable) DrainOne() bool {
	rec, ok := ct.kvFIFO.Pop()
	if !ok {
		return false
	}
	ct.FIFODrains++
	slot1, d, cnt := int(rec[0]), uint32(rec[1]), rec[2]
	idx2 := compiler.AltSlot(slot1, d, ct.plan.ArraySize, ct.halt)

	// If the key is already placed (by Update or an earlier drain), merge.
	if ct.digest1.Read(slot1) == uint64(d) {
		ct.count1.Write(slot1, ct.merge(ct.count1.Read(slot1), cnt))
		return true
	}
	if ct.digest2.Read(idx2) == uint64(d) {
		ct.count2.Write(idx2, ct.merge(ct.count2.Read(idx2), cnt))
		return true
	}

	shadow := ct.keyDir[oraclePendingID(slot1, d)]

	// Insert at the primary slot, relocating occupants along their
	// alternate-slot chains (bounded, like a pipeline pass).
	slot, digest, count := slot1, d, cnt
	array := 1
	for hop := 0; hop < ct.maxRelocate; hop++ {
		dArr, cArr := ct.digest1, ct.count1
		if array == 2 {
			dArr, cArr = ct.digest2, ct.count2
		}
		oldD := dArr.Read(slot)
		oldC := cArr.Read(slot)
		oldShadow := ct.shadowKeys[oracleCellID(array, slot)]
		if oldShadow == nil && oldD != 0 {
			// Recover the occupant's label from the key directory via
			// its primary slot (partial-key cuckoo makes it computable).
			occIdx1 := slot
			if array == 2 {
				occIdx1 = compiler.AltSlot(slot, uint32(oldD), ct.plan.ArraySize, ct.halt)
			}
			oldShadow = ct.keyDir[oraclePendingID(occIdx1, uint32(oldD))]
		}
		dArr.Write(slot, uint64(digest))
		cArr.Write(slot, count)
		if shadow != nil {
			ct.shadowKeys[oracleCellID(array, slot)] = shadow
		} else {
			delete(ct.shadowKeys, oracleCellID(array, slot))
		}
		if oldD == 0 {
			return true // placed in an empty slot
		}
		// The evicted occupant moves to its alternate slot (computable
		// from slot + digest alone).
		digest, count, shadow = uint32(oldD), oldC, oldShadow
		slot = compiler.AltSlot(slot, digest, ct.plan.ArraySize, ct.halt)
		array = 3 - array
	}
	// Relocation budget exhausted: report the carried entry to the CPU
	// (the "old KV pair evicted" path of Figure 5d).
	if shadow != nil {
		ct.evict(shadow, count)
	} else {
		ct.Unattributed += count
		ct.Evictions++
	}
	return true
}

// evict reports one entry to the switch CPU, through the OnEvict hook
// (push-mode digests) when installed, or the internal CPU map otherwise.
func (ct *oracleTable) evict(key []uint64, value uint64) {
	ct.Evictions++
	if ct.OnEvict != nil {
		ct.OnEvict(append([]uint64(nil), key...), value)
		return
	}
	ct.mergeInto(ct.evicted, string(compiler.AppendKey(nil, key)), value)
}

// SweepIdle is the control-plane aging pass: every occupied cell whose last
// touch is older than maxAge updates is uploaded to the CPU and freed,
// keeping the on-chip arrays available for active flows (§3.1's "evict the
// old analysis states"). It returns the number of evicted entries.
func (ct *oracleTable) SweepIdle(maxAge uint64) int {
	evicted := 0
	sweep := func(array int, dArr, cArr, tArr *asic.RegisterArray) {
		for slot := 0; slot < ct.plan.ArraySize; slot++ {
			if dArr.Read(slot) == 0 {
				continue
			}
			if ct.Updates-tArr.Read(slot) <= maxAge {
				continue
			}
			key := ct.shadowKeys[oracleCellID(array, slot)]
			if key == nil {
				occIdx1 := slot
				if array == 2 {
					occIdx1 = compiler.AltSlot(slot, uint32(dArr.Read(slot)), ct.plan.ArraySize, ct.halt)
				}
				key = ct.keyDir[oraclePendingID(occIdx1, uint32(dArr.Read(slot)))]
			}
			if key != nil {
				ct.evict(key, cArr.Read(slot))
			} else {
				ct.Unattributed += cArr.Read(slot)
				ct.Evictions++
			}
			dArr.Write(slot, 0)
			cArr.Write(slot, 0)
			delete(ct.shadowKeys, oracleCellID(array, slot))
			evicted++
		}
	}
	sweep(1, ct.digest1, ct.count1, ct.touch1)
	sweep(2, ct.digest2, ct.count2, ct.touch2)
	return evicted
}

// FIFOLen reports queued KV entries.
func (ct *oracleTable) FIFOLen() int { return ct.kvFIFO.Len() }

// DrainAll drains the FIFO completely (the CPU does this at collection
// time; during the run, template packets drain one entry per pass).
func (ct *oracleTable) DrainAll() {
	for ct.DrainOne() {
	}
}

// Collect merges the data-plane state (exact counters, both arrays, any
// remaining FIFO entries) with CPU-side evictions into a per-key report —
// what the switch CPU assembles from batched pulls plus digest messages.
func (ct *oracleTable) Collect() []Result {
	ct.DrainAll()
	merged := make(map[string]uint64)
	keyOf := make(map[string][]uint64)
	add := func(key []uint64, v uint64) {
		kb := string(compiler.AppendKey(nil, key))
		ct.mergeInto(merged, kb, v)
		keyOf[kb] = key
	}
	for _, e := range ct.exact {
		if e.seen {
			add(e.key, e.count)
		}
	}
	for cid, key := range ct.shadowKeys {
		array, slot := int(cid>>40), int(cid&0xffffffffff)
		if array == 1 {
			if ct.digest1.Read(slot) != 0 {
				add(key, ct.count1.Read(slot))
			}
		} else if ct.digest2.Read(slot) != 0 {
			add(key, ct.count2.Read(slot))
		}
	}
	for kb, v := range ct.evicted {
		key := keyOf[kb]
		if key == nil {
			key = oracleDecodeKey(kb)
		}
		add(key, v)
	}
	out := make([]Result, 0, len(merged))
	for kb, v := range merged {
		out = append(out, Result{Key: keyOf[kb], Value: v})
	}
	return out
}

func oracleDecodeKey(kb string) []uint64 {
	b := []byte(kb)
	out := make([]uint64, len(b)/8)
	for i := range out {
		for j := 0; j < 8; j++ {
			out[i] = out[i]<<8 | uint64(b[i*8+j])
		}
	}
	return out
}

// DistinctCount returns the number of distinct keys observed.
func (ct *oracleTable) DistinctCount() int { return len(ct.Collect()) }

func keyString(key []uint64) string {
	b := make([]byte, 0, len(key)*8)
	for _, v := range key {
		for s := 56; s >= 0; s -= 8 {
			b = append(b, byte(v>>uint(s)))
		}
	}
	return string(b)
}

// ---- differential test ----------------------------------------------------

// diffPair drives the live table and the oracle through one operation stream.
type diffPair struct {
	t    *testing.T
	name string
	ct   *CounterTable
	or   *oracleTable

	// Eviction sequences as seen through OnEvict (push mode only), and the
	// oracle's CPU-side aggregate of the evictions already collected.
	ctEv, orEv []Result
	orCPU      map[string]uint64
}

func newDiffPair(t *testing.T, name string, plan *compiler.QueryPlan, push bool) *diffPair {
	p := &diffPair{t: t, name: name, ct: NewCounterTable(plan), or: newOracleTable(plan), orCPU: map[string]uint64{}}
	if push {
		p.ct.OnEvict = func(key []uint64, v uint64) {
			p.ctEv = append(p.ctEv, Result{Key: append([]uint64(nil), key...), Value: v})
		}
		p.or.OnEvict = func(key []uint64, v uint64) {
			p.orEv = append(p.orEv, Result{Key: key, Value: v})
		}
	}
	return p
}

func (p *diffPair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%s: "+format, append([]any{p.name}, args...)...)
}

// check compares everything observable short of a collection: register
// contents and SALU access counts, FIFO state, statistics and the eviction
// sequence so far.
func (p *diffPair) check(when string) {
	p.t.Helper()
	ct, or := p.ct, p.or
	regs := []struct {
		name string
		a, b *asic.RegisterArray
	}{
		{"digest1", ct.digest1, or.digest1}, {"count1", ct.count1, or.count1},
		{"digest2", ct.digest2, or.digest2}, {"count2", ct.count2, or.count2},
		{"touch1", ct.touch1, or.touch1}, {"touch2", ct.touch2, or.touch2},
	}
	for _, r := range regs {
		if !slices.Equal(r.a.Snapshot(0, r.a.Size()), r.b.Snapshot(0, r.b.Size())) {
			p.fatalf("%s: register %s differs", when, r.name)
		}
		if r.a.Accesses != r.b.Accesses {
			p.fatalf("%s: register %s saw %d SALU accesses, oracle %d", when, r.name, r.a.Accesses, r.b.Accesses)
		}
	}
	if a, b := *ct.kvFIFO, *or.kvFIFO; a.Pushed != b.Pushed || a.Popped != b.Popped || a.Overflows != b.Overflows {
		p.fatalf("%s: KV FIFO pushed/popped/overflows %d/%d/%d, oracle %d/%d/%d", when,
			a.Pushed, a.Popped, a.Overflows, b.Pushed, b.Popped, b.Overflows)
	}
	got := [7]uint64{ct.Updates, ct.ExactHits, ct.FIFOPushes, ct.FIFODrains, ct.FIFODrops, ct.Evictions, ct.Unattributed}
	want := [7]uint64{or.Updates, or.ExactHits, or.FIFOPushes, or.FIFODrains, or.FIFODrops, or.Evictions, or.Unattributed}
	if got != want {
		p.fatalf("%s: updates/exact/pushes/drains/drops/evictions/unattributed %v, oracle %v", when, got, want)
	}
	if len(p.ctEv) != len(p.orEv) {
		p.fatalf("%s: %d evictions pushed, oracle %d", when, len(p.ctEv), len(p.orEv))
	}
	for i := range p.ctEv {
		if !slices.Equal(p.ctEv[i].Key, p.orEv[i].Key) || p.ctEv[i].Value != p.orEv[i].Value {
			p.fatalf("%s: eviction %d is %v, oracle %v", when, i, p.ctEv[i], p.orEv[i])
		}
	}
}

// collect compares the collected key→value sets. In push mode the CPU side
// is played here: the live table gets its evictions back through
// MergeEvicted, the oracle's are merged the way Receiver.Collect used to.
func (p *diffPair) collect(when string) {
	p.t.Helper()
	want := map[string]uint64{}
	for _, r := range p.or.Collect() {
		want[keyString(r.Key)] = r.Value
	}
	for _, ev := range p.orEv {
		p.or.mergeInto(p.orCPU, keyString(ev.Key), ev.Value)
	}
	p.orEv = p.orEv[:0]
	for ks, v := range p.orCPU {
		p.or.mergeInto(want, ks, v)
	}
	// DrainAll first: collection's own drains may evict.
	p.ct.DrainAll()
	for _, ev := range p.ctEv {
		p.ct.MergeEvicted(ev.Key, ev.Value)
	}
	p.ctEv = p.ctEv[:0]
	got := p.ct.Collect()
	if len(got) != len(want) {
		p.fatalf("%s: collected %d keys, oracle %d", when, len(got), len(want))
	}
	seen := map[string]bool{}
	for _, r := range got {
		ks := keyString(r.Key)
		if seen[ks] {
			p.fatalf("%s: key %v collected twice", when, r.Key)
		}
		seen[ks] = true
		if v, ok := want[ks]; !ok || v != r.Value {
			p.fatalf("%s: key %v = %d, oracle %d (present %v)", when, r.Key, r.Value, v, ok)
		}
	}
}

// TestCounterTableDifferential holds the flat-row CounterTable to the
// map-based one it replaced: seeded key populations x every aggregate x key
// widths 1-4 x arrays from roomy to 4x over-subscribed x {internal eviction
// store, OnEvict} with idle sweeps, a drain-starved phase that overflows the
// KV FIFO, and collections mid-run. Registers (cells and SALU access
// counts), FIFO counters, statistics, eviction sequence and collected
// key→value set must be identical throughout.
func TestCounterTableDifferential(t *testing.T) {
	type agg struct {
		kind ntapi.QueryKind
		fn   ntapi.AggFunc
	}
	aggs := []agg{
		{ntapi.KindReduce, ntapi.AggSum}, {ntapi.KindReduce, ntapi.AggCount},
		{ntapi.KindReduce, ntapi.AggMax}, {ntapi.KindReduce, ntapi.AggMin},
		{ntapi.KindDistinct, ntapi.AggCount},
	}
	fields := []asic.Field{asic.FieldIPv4Src, asic.FieldIPv4Dst, asic.FieldL4SrcPort, asic.FieldL4DstPort}
	const population = 512
	span := []int{0, 700, 30, 9, 5} // values per key word, by width: 600-900 distinct tuples
	evictions, drops, exactHits, sweeps := uint64(0), uint64(0), uint64(0), 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, a := range aggs {
			for width := 1; width <= 4; width++ {
				for _, arraySize := range []int{1 << 10, 1 << 8, 1 << 6} { // 0.25x, 1x, 4x the cells
					for _, push := range []bool{false, true} {
						rng := rand.New(rand.NewSource(seed*1000 + int64(width)*10 + int64(arraySize)))
						keys := make([][]uint64, population)
						for i := range keys {
							keys[i] = make([]uint64, width)
							for w := range keys[i] {
								keys[i][w] = uint64(rng.Intn(span[width])) << uint(8*w) // words repeat across tuples
							}
						}
						plan := testPlan(a.kind, a.fn, arraySize, 8)
						plan.Keys = fields[:width]
						plan.ExactKeys = compiler.ComputeExactKeys(keys[:population/2], arraySize, plan.DigestBits,
							plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
						if len(plan.ExactKeys) > 0 {
							plan.ExactKeys = append(plan.ExactKeys, plan.ExactKeys[0]) // a repeated entry
						}
						name := fmt.Sprintf("seed %d %v/%v width %d array %d push %v", seed, a.kind, a.fn, width, arraySize, push)
						p := newDiffPair(t, name, plan, push)

						key := make([]uint64, width) // one buffer for every Update: keys must be copied
						step := func(drainEvery int) {
							copy(key, keys[rng.Intn(population)])
							delta := uint64(rng.Intn(1000))
							if g, w := p.ct.Update(key, delta), p.or.Update(key, delta); g != w {
								p.fatalf("Update(%v, %d) = %d, oracle %d", key, delta, g, w)
							}
							if drainEvery > 0 && rng.Intn(drainEvery) == 0 {
								if g, w := p.ct.DrainOne(), p.or.DrainOne(); g != w {
									p.fatalf("DrainOne = %v, oracle %v", g, w)
								}
							}
						}
						for i := 0; i < 1500; i++ {
							step(2)
						}
						p.check("after the drained phase")
						if g, w := p.ct.SweepIdle(300), p.or.SweepIdle(300); g != w {
							p.fatalf("SweepIdle evicted %d, oracle %d", g, w)
						} else if g > 0 {
							sweeps++
						}
						p.check("after the first sweep")
						p.collect("mid-run")
						for i := 0; i < 2500; i++ {
							step(0) // starved of drains: an over-subscribed table overflows its FIFO
						}
						p.check("after the starved phase")
						for i := 0; i < 1500; i++ {
							step(3)
						}
						p.ct.SweepIdle(100)
						p.or.SweepIdle(100)
						p.check("after the second sweep")
						p.collect("final")
						p.collect("repeated")
						p.check("after collection")
						evictions += p.ct.Evictions
						drops += p.ct.FIFODrops
						exactHits += p.ct.ExactHits
					}
				}
			}
		}
	}
	if evictions == 0 || drops == 0 || exactHits == 0 || sweeps == 0 {
		t.Fatalf("paths not exercised: %d evictions, %d FIFO drops, %d exact hits, %d effective sweeps",
			evictions, drops, exactHits, sweeps)
	}
	t.Logf("%d evictions, %d FIFO drops, %d exact hits, %d effective sweeps", evictions, drops, exactHits, sweeps)
}
