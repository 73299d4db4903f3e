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
// place and relocate entries without knowing the key.
//
// The fields under "CPU-side labels" are control-plane bookkeeping only: the
// switch CPU can reconstruct key↔cell mappings because the header space is
// known (§5.2); labels name results and never influence data-plane
// behaviour. They are flat: every key the CPU has had to name is one row of
// keys, and all per-key and per-cell state is a slice indexed by row or slot.
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

	// exact is the exact-key-matching table (Figure 4): the precomputed
	// colliding keys, row e counting in exactCount[e] once exactSeen[e].
	exact      *compiler.TupleMatrix
	exactCount []uint64
	exactSeen  []bool

	// CPU-side labels. keys holds each named key once, in first-seen order;
	// its first exact.Len() rows are the exact keys, row for row.
	keys *compiler.TupleMatrix
	// label1/label2 name the occupant of each register cell as a keys row;
	// noRow marks an empty cell. Every occupant has a name: Update labels
	// what it inserts, a drained KV entry carries the row dir holds for it,
	// and a relocated occupant takes its label along.
	label1, label2 []int32
	// dir names KV-FIFO entries: row i is a (primary slot, digest) pair
	// packed into one word, dirRow[i] the keys row it was queued for. Among
	// non-exact keys the pair is unique by construction (colliding keys
	// were moved to the exact table). Entries persist for the task's
	// lifetime.
	dir    *compiler.TupleMatrix
	dirRow []int32
	// evicted holds, per keys row, what has been reported to the switch CPU
	// for that key: FIFO-overflow, relocation-budget and idle-sweep
	// evictions while OnEvict is nil, and whatever MergeEvicted is handed.
	evicted []partial

	// OnEvict, when non-nil, receives each evicted (key, partial
	// aggregate) instead of the internal CPU-side store (the push-mode
	// digest path the receiver wires up). key aliases the table's key rows
	// and must not be modified.
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

	// Scratch reused across calls: the key's hash-input bytes (live inside
	// one Update) and the per-row accumulator of results.
	kbuf []byte
	acc  []partial
}

// partial is one key's aggregate so far; ok is false until a first value
// arrives (0 is a legitimate minimum, so absence cannot be a value).
type partial struct {
	v  uint64
	ok bool
}

// noRow is the label of an empty cell, and of a KV entry dir has no row for
// (which Update's bookkeeping rules out; evict counts it as Unattributed).
const noRow int32 = -1

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

// Registers lists every register array of the table: the six cell arrays,
// then the KV FIFO's.
func (ct *CounterTable) Registers() []*asic.RegisterArray {
	return append([]*asic.RegisterArray{ct.digest1, ct.count1, ct.digest2, ct.count2, ct.touch1, ct.touch2},
		ct.kvFIFO.Registers()...)
}

// kvLayout: slot1, digest, count (register-file FIFO reuse).
var kvLayout = []asic.Field{asic.FieldNone, asic.FieldNone, asic.FieldNone}

// NewCounterTable builds the runtime structure for a reduce/distinct plan.
// Keys handed to Update must be len(plan.Keys) words wide.
func NewCounterTable(plan *compiler.QueryPlan) *CounterTable {
	width := len(plan.Keys)
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
		exact:       compiler.NewTupleMatrix(width, len(plan.ExactKeys)),
		keys:        compiler.NewTupleMatrix(width, len(plan.ExactKeys)),
		label1:      make([]int32, plan.ArraySize),
		label2:      make([]int32, plan.ArraySize),
		dir:         compiler.NewTupleMatrix(1, 0),
		maxRelocate: 8,
	}
	for i := range ct.label1 {
		ct.label1[i], ct.label2[i] = noRow, noRow
	}
	for _, k := range plan.ExactKeys {
		if _, added := ct.exact.Probe(k); added {
			ct.exactCount = append(ct.exactCount, 0)
			ct.exactSeen = append(ct.exactSeen, false)
			ct.row(k)
		}
	}
	return ct
}

// row returns key's row in the CPU's key list, adding it on first sight.
func (ct *CounterTable) row(key []uint64) int32 {
	r, added := ct.keys.Probe(key)
	if added {
		ct.evicted = append(ct.evicted, partial{})
	}
	return int32(r)
}

func pendingID(slot1 int, digest uint32) uint64 {
	return uint64(slot1)<<32 | uint64(digest)
}

// queuedRow returns the keys row a (primary slot, digest) pair was queued
// for, or noRow.
func (ct *CounterTable) queuedRow(slot1 int, digest uint32) int32 {
	pair := [1]uint64{pendingID(slot1, digest)}
	if i := ct.dir.Find(pair[:]); i >= 0 {
		return ct.dirRow[i]
	}
	return noRow
}

// Update processes one packet's key with a value delta. For distinct
// queries the aggregate saturates at 1 (insert-if-new). It returns the
// post-update aggregate for the key, which post-reduce filters evaluate.
// key is not retained.
func (ct *CounterTable) Update(key []uint64, delta uint64) uint64 {
	ct.Updates++

	// Exact key matching first: precomputed collisions resolve here and
	// never touch the hashed arrays (Figure 4).
	if e := ct.exact.Find(key); e >= 0 {
		ct.ExactHits++
		ct.exactCount[e] = ct.agg(ct.exactCount[e], delta, !ct.exactSeen[e])
		ct.exactSeen[e] = true
		return ct.exactCount[e]
	}

	ct.kbuf = compiler.AppendKey(ct.kbuf[:0], key)
	idx1, idx2, d := compiler.CuckooSlots(ct.kbuf, ct.plan.ArraySize, ct.plan.DigestBits, ct.h1, ct.hd, ct.halt)

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
		ct.label1[idx1] = ct.row(key)
		return first
	}
	if ct.digest2.Read(idx2) == 0 {
		ct.digest2.Write(idx2, uint64(d))
		ct.count2.Write(idx2, first)
		ct.touch2.Write(idx2, ct.Updates)
		ct.label2[idx2] = ct.row(key)
		return first
	}
	// Both candidate slots occupied: queue the KV pair for a recirculated
	// template packet to place (Figure 5b).
	rec := [3]uint64{uint64(idx1), uint64(d), first}
	if ct.kvFIFO.Push(rec[:]) {
		ct.FIFOPushes++
		pair := [1]uint64{pendingID(idx1, d)}
		if _, added := ct.dir.Probe(pair[:]); added {
			ct.dirRow = append(ct.dirRow, ct.row(key))
		}
	} else {
		// FIFO overflow: report straight to the switch CPU (§6.1).
		ct.FIFODrops++
		ct.evict(ct.row(key), first)
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
// know (fold), not a value.
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

// fold merges one more partial aggregate of a key into p; a key's first
// partial is stored as it is.
func (ct *CounterTable) fold(p *partial, v uint64) {
	if p.ok {
		v = ct.merge(p.v, v)
	}
	p.v, p.ok = v, true
}

// DrainOne performs one FIFO pop and cuckoo insertion — the work a
// recirculated template packet does per pass (Figure 5). It reports whether
// anything was drained.
func (ct *CounterTable) DrainOne() bool {
	var buf [3]uint64 // the KV record lives only inside this call
	rec, ok := ct.kvFIFO.PopInto(buf[:0])
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

	row := ct.queuedRow(slot1, d)

	// Insert at the primary slot, relocating occupants along their
	// alternate-slot chains (bounded, like a pipeline pass).
	slot, digest, count := slot1, d, cnt
	array := 1
	for hop := 0; hop < ct.maxRelocate; hop++ {
		dArr, cArr, labels := ct.digest1, ct.count1, ct.label1
		if array == 2 {
			dArr, cArr, labels = ct.digest2, ct.count2, ct.label2
		}
		oldD := dArr.Read(slot)
		oldC := cArr.Read(slot)
		oldRow := labels[slot]
		dArr.Write(slot, uint64(digest))
		cArr.Write(slot, count)
		labels[slot] = row
		if oldD == 0 {
			return true // placed in an empty slot
		}
		// The evicted occupant moves to its alternate slot (computable
		// from slot + digest alone).
		digest, count, row = uint32(oldD), oldC, oldRow
		slot = compiler.AltSlot(slot, digest, ct.plan.ArraySize, ct.halt)
		array = 3 - array
	}
	// Relocation budget exhausted: report the carried entry to the CPU
	// (the "old KV pair evicted" path of Figure 5d).
	ct.evict(row, count)
	return true
}

// evict reports one entry to the switch CPU, through the OnEvict hook
// (push-mode digests) when installed, or the internal CPU store otherwise.
// An entry the CPU cannot name is only counted.
func (ct *CounterTable) evict(row int32, value uint64) {
	ct.Evictions++
	switch {
	case row == noRow:
		ct.Unattributed += value
	case ct.OnEvict != nil:
		ct.OnEvict(ct.keys.Row(int(row)), value)
	default:
		ct.fold(&ct.evicted[row], value)
	}
}

// MergeEvicted is the switch-CPU end of push-mode reporting: it folds a
// partial aggregate that arrived for key into the CPU-side store. key is
// not retained.
func (ct *CounterTable) MergeEvicted(key []uint64, value uint64) {
	ct.fold(&ct.evicted[ct.row(key)], value)
}

// SweepIdle is the control-plane aging pass: every occupied cell whose last
// touch is older than maxAge updates is uploaded to the CPU and freed,
// keeping the on-chip arrays available for active flows (§3.1's "evict the
// old analysis states"). It returns the number of evicted entries.
func (ct *CounterTable) SweepIdle(maxAge uint64) int {
	evicted := 0
	sweep := func(dArr, cArr, tArr *asic.RegisterArray, labels []int32) {
		for slot := 0; slot < ct.plan.ArraySize; slot++ {
			if dArr.Read(slot) == 0 || ct.Updates-tArr.Read(slot) <= maxAge {
				continue
			}
			ct.evict(labels[slot], cArr.Read(slot))
			dArr.Write(slot, 0)
			cArr.Write(slot, 0)
			labels[slot] = noRow
			evicted++
		}
	}
	sweep(ct.digest1, ct.count1, ct.touch1, ct.label1)
	sweep(ct.digest2, ct.count2, ct.touch2, ct.label2)
	return evicted
}

// FIFOLen reports queued KV entries (a silent peek, like FIFO.Len).
func (ct *CounterTable) FIFOLen() int { return ct.kvFIFO.Len() }

// DrainAll drains the FIFO completely (the CPU does this at collection
// time; during the run, template packets drain one entry per pass).
func (ct *CounterTable) DrainAll() {
	for ct.DrainOne() {
	}
}

// Result is one key's aggregate in a collected report. Key aliases the
// table's key rows and must not be modified.
type Result struct {
	Key   []uint64
	Value uint64
}

// Collect merges the data-plane state (exact counters, both arrays, any
// remaining FIFO entries) with CPU-side evictions into a per-key report —
// what the switch CPU assembles from batched pulls plus digest messages.
// Rows come in the order the CPU first had to name their keys.
func (ct *CounterTable) Collect() []Result {
	ct.DrainAll()
	return ct.results()
}

// results folds everything known about each key into one accumulator per
// keys row and emits the rows that hold a value.
func (ct *CounterTable) results() []Result {
	acc := append(ct.acc[:0], ct.evicted...)
	ct.acc = acc
	for e, seen := range ct.exactSeen {
		if seen {
			ct.fold(&acc[e], ct.exactCount[e])
		}
	}
	cells := func(labels []int32, dArr, cArr *asic.RegisterArray) {
		for slot, row := range labels {
			if row != noRow && dArr.Read(slot) != 0 {
				ct.fold(&acc[row], cArr.Read(slot))
			}
		}
	}
	cells(ct.label1, ct.digest1, ct.count1)
	cells(ct.label2, ct.digest2, ct.count2)
	out := make([]Result, 0, len(acc))
	for r, p := range acc {
		if p.ok {
			out = append(out, Result{Key: ct.keys.Row(r), Value: p.v})
		}
	}
	return out
}

// DistinctCount returns the number of distinct keys observed.
func (ct *CounterTable) DistinctCount() int { return len(ct.Collect()) }
