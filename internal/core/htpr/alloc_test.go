package htpr

import (
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/raceflag"
)

// TestQueryPathZeroAllocs pins the steady state of the per-packet query
// path: once the CPU has named a task's keys, no branch a packet can take —
// and nothing an eviction sets off on its way to the CPU — allocates.
func TestQueryPathZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates on its own")
	}
	zero := func(name string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
	key := make([]uint64, 1)

	roomy := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggSum, 1<<10, 16))
	roomy.Update(key, 1)
	zero("Update hit", func() { roomy.Update(key, 3) })

	// Insert: 256 named keys swept out of a roomy table, so every Update
	// of the run claims an empty cell.
	for k := uint64(0); k < 256; k++ {
		key[0] = k
		roomy.Update(key, 1)
	}
	roomy.SweepIdle(0)
	next := uint64(0)
	zero("Update insert", func() {
		key[0] = next
		next++
		roomy.Update(key, 1)
	})
	if roomy.FIFOPushes != 0 || next < 200 {
		t.Fatalf("insert case queued %d KV pairs over %d updates", roomy.FIFOPushes, next)
	}

	// KV push and drain: 64 keys cycling through 2x4 cells, one drain per
	// update, so pairs queue, relocate occupants and evict what the
	// relocation budget strands — into the table's own CPU store.
	tiny := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggSum, 4, 16))
	churn := func() {
		key[0] = next % 64
		next++
		tiny.Update(key, 1)
		tiny.DrainOne()
	}
	for i := 0; i < 1024; i++ {
		churn()
	}
	pushes, evictions := tiny.FIFOPushes, tiny.Evictions
	zero("Update KV push + DrainOne relocate/evict", churn)
	if tiny.FIFOPushes-pushes < 100 || tiny.Evictions-evictions < 50 {
		t.Fatalf("churn case made %d pushes and %d evictions", tiny.FIFOPushes-pushes, tiny.Evictions-evictions)
	}

	fifo := stateless.New("t", []asic.Field{asic.FieldIPv4Src, asic.FieldL4SrcPort}, 16)
	rec, buf := []uint64{1, 2}, make([]uint64, 0, 2)
	zero("FIFO push + pop-into", func() {
		fifo.Push(rec)
		if out, ok := fifo.PopInto(buf); !ok || out[1] != 2 {
			t.Fatal("pop-into lost the record")
		}
	})

	// The receiver's packet path into a table, and the push-mode eviction
	// round trip: encode into a pooled buffer, queue, decode on the CPU
	// side, merge, recycle.
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(sport, range(1, 1024, 1)).set(port, 0)
Q1 = query().reduce(func=count, keys={ipv4.sip})
`)
	r := NewReceiver(prog)
	r.EnableDigestEvictions()
	st := r.State(1)
	p := tcpPHV(t, 7, 80, netproto.TCPSyn, 0)
	r.process(st, p)
	zero("Receiver.process", func() { r.process(st, p) })
	roundTrip := func() {
		st.Table.OnEvict(key, 5)
		msg := st.pendingDigests.pop()
		r.MergeDigest(msg)
		r.recycleDigestBuf(msg)
	}
	roundTrip()
	zero("eviction digest encode + decode + merge", roundTrip)
	if got := st.Table.Collect(); len(got) != 2 {
		t.Fatalf("collected %d keys after the round trips, want 2", len(got))
	}
}
