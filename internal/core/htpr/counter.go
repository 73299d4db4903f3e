// Package htpr implements the HyperTester Packet Receiver (§5.2): compiled
// packet-stream queries with the false-positive-free counter-based
// algorithm — partial-key cuckoo hashing over two register arrays, a KV
// FIFO whose entries are drained by recirculated template packets, exact
// key matching for the precomputed collisions, and eviction of old entries
// to the switch CPU.
package htpr

import (
	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// CounterTable is the data-plane structure behind one reduce or distinct
// query. The arrays store (digest, counter) in registers; full keys are
// never stored on the data plane. KV-FIFO records carry (primary slot,
// digest, count) — under partial-key cuckoo hashing that is sufficient to
// place and relocate entries without knowing the key. The shadowKeys map is
// control-plane bookkeeping only: the switch CPU can reconstruct key↔cell
// mappings because the header space is known (§5.2); it labels results and
// never influences data-plane behaviour.
type CounterTable struct {
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
	exact map[string]*exactEntry

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

// Observe binds the table's six register arrays to a trace stream so every
// SALU access during query processing emits a salu record.
func (ct *CounterTable) Observe(clock *netsim.Sim, tr *obs.Trace) {
	ct.digest1.Observe(clock, tr)
	ct.count1.Observe(clock, tr)
	ct.digest2.Observe(clock, tr)
	ct.count2.Observe(clock, tr)
	ct.touch1.Observe(clock, tr)
	ct.touch2.Observe(clock, tr)
}

type exactEntry struct {
	key   []uint64
	count uint64
	seen  bool
}

// kvLayout: slot1, digest, count (register-file FIFO reuse).
var kvLayout = []asic.Field{asic.FieldNone, asic.FieldNone, asic.FieldNone}

// NewCounterTable builds the runtime structure for a reduce/distinct plan.
func NewCounterTable(plan *compiler.QueryPlan) *CounterTable {
	ct := &CounterTable{
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
		exact:       make(map[string]*exactEntry),
		shadowKeys:  make(map[uint64][]uint64),
		evicted:     make(map[string]uint64),
		maxRelocate: 8,
	}
	for _, k := range plan.ExactKeys {
		key := append([]uint64(nil), k...)
		ct.exact[string(compiler.EncodeKey(key))] = &exactEntry{key: key}
	}
	return ct
}

func pendingID(slot1 int, digest uint32) uint64 {
	return uint64(slot1)<<32 | uint64(digest)
}

func cellID(array, slot int) uint64 { return uint64(array)<<40 | uint64(slot) }

// Update processes one packet's key with a value delta. For distinct
// queries the aggregate saturates at 1 (insert-if-new). It returns the
// post-update aggregate for the key, which post-reduce filters evaluate.
func (ct *CounterTable) Update(key []uint64, delta uint64) uint64 {
	ct.Updates++
	kb := compiler.EncodeKey(key)

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
		ct.shadowKeys[cellID(1, idx1)] = append([]uint64(nil), key...)
		return first
	}
	if ct.digest2.Read(idx2) == 0 {
		ct.digest2.Write(idx2, uint64(d))
		ct.count2.Write(idx2, first)
		ct.touch2.Write(idx2, ct.Updates)
		ct.shadowKeys[cellID(2, idx2)] = append([]uint64(nil), key...)
		return first
	}
	// Both candidate slots occupied: queue the KV pair for a recirculated
	// template packet to place (Figure 5b).
	if ct.kvFIFO.Push([]uint64{uint64(idx1), uint64(d), first}) {
		ct.FIFOPushes++
		if _, dup := ct.keyDir[pendingID(idx1, d)]; !dup {
			ct.keyDir[pendingID(idx1, d)] = append([]uint64(nil), key...)
		}
	} else {
		// FIFO overflow: report straight to the switch CPU (§6.1).
		ct.FIFODrops++
		ct.evict(key, first)
	}
	return first
}

// agg folds a packet's delta into an aggregate.
func (ct *CounterTable) agg(old, delta uint64, isNew bool) uint64 {
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
func (ct *CounterTable) merge(a, b uint64) uint64 {
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
func (ct *CounterTable) mergeInto(m map[string]uint64, kb string, v uint64) {
	if old, ok := m[kb]; ok {
		v = ct.merge(old, v)
	}
	m[kb] = v
}

// DrainOne performs one FIFO pop and cuckoo insertion — the work a
// recirculated template packet does per pass (Figure 5). It reports whether
// anything was drained.
func (ct *CounterTable) DrainOne() bool {
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

	shadow := ct.keyDir[pendingID(slot1, d)]

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
		oldShadow := ct.shadowKeys[cellID(array, slot)]
		if oldShadow == nil && oldD != 0 {
			// Recover the occupant's label from the key directory via
			// its primary slot (partial-key cuckoo makes it computable).
			occIdx1 := slot
			if array == 2 {
				occIdx1 = compiler.AltSlot(slot, uint32(oldD), ct.plan.ArraySize, ct.halt)
			}
			oldShadow = ct.keyDir[pendingID(occIdx1, uint32(oldD))]
		}
		dArr.Write(slot, uint64(digest))
		cArr.Write(slot, count)
		if shadow != nil {
			ct.shadowKeys[cellID(array, slot)] = shadow
		} else {
			delete(ct.shadowKeys, cellID(array, slot))
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
func (ct *CounterTable) evict(key []uint64, value uint64) {
	ct.Evictions++
	if ct.OnEvict != nil {
		ct.OnEvict(append([]uint64(nil), key...), value)
		return
	}
	ct.mergeInto(ct.evicted, string(compiler.EncodeKey(key)), value)
}

// SweepIdle is the control-plane aging pass: every occupied cell whose last
// touch is older than maxAge updates is uploaded to the CPU and freed,
// keeping the on-chip arrays available for active flows (§3.1's "evict the
// old analysis states"). It returns the number of evicted entries.
func (ct *CounterTable) SweepIdle(maxAge uint64) int {
	evicted := 0
	sweep := func(array int, dArr, cArr, tArr *asic.RegisterArray) {
		for slot := 0; slot < ct.plan.ArraySize; slot++ {
			if dArr.Read(slot) == 0 {
				continue
			}
			if ct.Updates-tArr.Read(slot) <= maxAge {
				continue
			}
			key := ct.shadowKeys[cellID(array, slot)]
			if key == nil {
				occIdx1 := slot
				if array == 2 {
					occIdx1 = compiler.AltSlot(slot, uint32(dArr.Read(slot)), ct.plan.ArraySize, ct.halt)
				}
				key = ct.keyDir[pendingID(occIdx1, uint32(dArr.Read(slot)))]
			}
			if key != nil {
				ct.evict(key, cArr.Read(slot))
			} else {
				ct.Unattributed += cArr.Read(slot)
				ct.Evictions++
			}
			dArr.Write(slot, 0)
			cArr.Write(slot, 0)
			delete(ct.shadowKeys, cellID(array, slot))
			evicted++
		}
	}
	sweep(1, ct.digest1, ct.count1, ct.touch1)
	sweep(2, ct.digest2, ct.count2, ct.touch2)
	return evicted
}

// FIFOLen reports queued KV entries.
func (ct *CounterTable) FIFOLen() int { return ct.kvFIFO.Len() }

// DrainAll drains the FIFO completely (the CPU does this at collection
// time; during the run, template packets drain one entry per pass).
func (ct *CounterTable) DrainAll() {
	for ct.DrainOne() {
	}
}

// Result is one key's aggregate in a collected report.
type Result struct {
	Key   []uint64
	Value uint64
}

// Collect merges the data-plane state (exact counters, both arrays, any
// remaining FIFO entries) with CPU-side evictions into a per-key report —
// what the switch CPU assembles from batched pulls plus digest messages.
func (ct *CounterTable) Collect() []Result {
	ct.DrainAll()
	merged := make(map[string]uint64)
	keyOf := make(map[string][]uint64)
	add := func(key []uint64, v uint64) {
		kb := string(compiler.EncodeKey(key))
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
			key = decodeKey(kb)
		}
		add(key, v)
	}
	out := make([]Result, 0, len(merged))
	for kb, v := range merged {
		out = append(out, Result{Key: keyOf[kb], Value: v})
	}
	return out
}

func decodeKey(kb string) []uint64 {
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
func (ct *CounterTable) DistinctCount() int { return len(ct.Collect()) }
