package asic

import (
	"runtime/debug"
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/raceflag"
)

// obsTestPipeline builds a 2-port switch whose ingress pass crosses every
// per-packet trace callsite that a production pipeline has: a match-table
// lookup, a SALU register access, and forwarding to port 1 (TM, egress,
// deparse, wire). The returned register is pre-bound to nothing; callers
// attach traces as needed.
func obsTestPipeline(t *testing.T) (*netsim.Sim, *Switch, *Table, *RegisterArray) {
	t.Helper()
	sim, sw := benchTestSwitch(t, 2)
	tbl := NewTable("obs_tbl", MatchExact, FieldUDPDstPort)
	if err := tbl.AddExact([]uint64{2}, nil); err != nil {
		t.Fatal(err)
	}
	reg := NewRegisterArray("obs_reg", 4)
	sw.Ingress.Add(ProcessorFunc(func(p *PHV) {
		tbl.Apply(p)
		reg.RMW(0, func(old uint64) (uint64, uint64) { return old + 1, 0 })
		p.EgressPort = 1
	}))
	sw.Port(1).SetPeer(func(pkt *netproto.Packet, at netsim.Time) { pkt.Release() })
	return sim, sw, tbl, reg
}

// TestDisabledTracingZeroAllocs is the disabled-path cost contract of the
// observability layer, measured end to end: a full ingress→table→SALU→TM→
// egress→wire traversal with tracing disabled (nil trace everywhere — the
// default) must not allocate. Together with the pipeline/replication tests
// in zeroalloc_test.go this pins that adding the trace callsites costs untraced
// runs nothing but a few predictable branches.
func TestDisabledTracingZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	sim, sw, _, _ := obsTestPipeline(t)
	sw.SetTrace(nil) // explicit: the path under test is the disabled one
	base := testFrame(t, 64)
	run := func() {
		sw.Port(0).Receive(base.Clone())
		sim.Run()
	}
	for i := 0; i < 32; i++ { // warm the pools
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("disabled-tracing traversal allocates %v allocs/op, want 0", avg)
	}
}

// TestTracedLifecycleRecords runs one frame through the same pipeline with
// tracing enabled and checks the record stream tells the full story in
// order: parse, table hit, SALU access, TM enqueue/dequeue, wire TX — all on
// the switch's stream, with the frame's UID and interned labels.
func TestTracedLifecycleRecords(t *testing.T) {
	sim, sw, _, reg := obsTestPipeline(t)
	ts := obs.NewTraceSet()
	tr := ts.New("sw")
	sw.SetTrace(tr)
	reg.Observe(sim, tr)

	pkt := testFrame(t, 64)
	pkt.Meta.UID = 77
	sw.Port(0).Receive(pkt)
	sim.Run()

	want := []obs.Kind{
		obs.KindParse, obs.KindTableHit, obs.KindSALU,
		obs.KindTMEnqueue, obs.KindTMDequeue, obs.KindWireTx,
	}
	recs := tr.Records()
	i := 0
	for _, r := range recs {
		if i < len(want) && r.Kind == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("lifecycle records out of order or missing: matched %d of %v in %v", i, want, recs)
	}
	for _, r := range recs {
		switch r.Kind {
		case obs.KindTableHit:
			if r.Label != "obs_tbl" {
				t.Errorf("table record label = %q, want obs_tbl", r.Label)
			}
		case obs.KindSALU:
			if r.Label != "obs_reg" {
				t.Errorf("salu record label = %q, want obs_reg", r.Label)
			}
		case obs.KindParse:
			if r.UID != 77 {
				t.Errorf("parse record uid = %d, want 77", r.UID)
			}
		}
	}
	var last netsim.Time
	for _, r := range recs {
		if r.At < last {
			t.Fatalf("records not time-ordered within the stream: %v", recs)
		}
		last = r.At
	}
}
