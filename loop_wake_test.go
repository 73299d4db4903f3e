package hypertester

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/testbed"
)

// One test per way a sleeping loop is woken (DESIGN.md §9.6 lists them).
// Each runs the differential of loop_oracle_test.go on a testbed built so the
// source provably occurs, and checks that it did.

func cutsEvery(step, end netsim.Duration) []netsim.Time {
	var cuts []netsim.Time
	for at := step; at <= end; at += step {
		cuts = append(cuts, netsim.Time(at))
	}
	return cuts
}

// probes is a generator against the reflector with keyed reductions on both
// directions; n distinct keys over tables of the spec's array size.
func probes(interval string, keys int) string {
	return fmt.Sprintf(`
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.1, 1.1.0.1, udp, 9, 7])
    .set(ipv4.id, range(0, %d, 1))
    .set(interval, %s)
    .set(port, 0)
Q1 = query().map(p -> (ipv4.id)).reduce(keys={ipv4.sip, ipv4.id}, func=max)
Q2 = query(T1).reduce(func=count, keys={ipv4.id})
`, keys-1, interval)
}

// A trigger record pushed by a front-panel packet wakes the stateless
// template it is for; the other templates sleep on.
func TestLoopWakeOnTriggerPush(t *testing.T) {
	s := genLoopSpec(1)
	for seed := int64(2); !s.farm; seed++ {
		s = genLoopSpec(seed)
	}
	el := runLoopDifferential(t, s, nil)
	st := el.ht.Switch.LoopStats()
	if el.ht.Sender.FiredCount(2) == 0 || st.Wakes == 0 || st.ElidedPasses == 0 {
		t.Fatalf("T2 fired %d times, stats %+v: want trigger pushes waking a sleeping loop", el.ht.Sender.FiredCount(2), st)
	}
}

// A counter-table update that finds both cuckoo slots taken queues a KV
// record: the next template pass has a drain to do.
func TestLoopWakeOnKVPush(t *testing.T) {
	s := loopSpec{seed: 11, paths: 1, array: 16, src: probes("700ns", 4096),
		cable: testbed.DefaultCableDelay, cuts: cutsEvery(9_777_001, 60*netsim.Microsecond)}
	el := runLoopDifferential(t, s, nil)
	var pushes, drains uint64
	for _, q := range el.ht.Receiver.States() {
		if q.Table != nil {
			pushes += q.Table.FIFOPushes
			drains += q.Table.FIFODrains
		}
	}
	if st := el.ht.Switch.LoopStats(); pushes == 0 || drains == 0 || st.Wakes == 0 || st.ElidedPasses == 0 {
		t.Fatalf("%d KV pushes, %d drains, stats %+v: want KV pushes waking a sleeping loop", pushes, drains, st)
	}
}

// Evictions wait on the data plane while the digest channel is full; the
// drain that frees a slot lets the next template pass attach one.
func TestLoopWakeOnDigestRoom(t *testing.T) {
	s := loopSpec{seed: 12, paths: 1, array: 16, src: probes("150ns", 65536),
		cable: testbed.DefaultCableDelay, cuts: cutsEvery(230_000_777, 1400*netsim.Microsecond)}
	full := false
	el := runLoopDifferential(t, s, func(_ int, b *loopBed, elided bool) {
		if elided && b.ht.Switch.DigestQueueLen() >= 4096 {
			for _, q := range b.ht.Receiver.States() {
				full = full || q.PendingDigests() > 0
			}
		}
	})
	if !full {
		t.Fatalf("the digest channel never filled with evictions waiting behind it (queue %d)", el.ht.Switch.DigestQueueLen())
	}
	if st := el.ht.Switch.LoopStats(); st.ElidedPasses == 0 || el.ht.Switch.DigestsSent < 2 {
		t.Fatalf("stats %+v, %d digests delivered: want passes elided around channel drains", st, el.ht.Switch.DigestsSent)
	}
}

// Attaching a trace mid-run hands every modelled copy back to the scheduler:
// from there on both runs are event-per-hop, and still equal.
func TestLoopWakeOnEnableTrace(t *testing.T) {
	s := loopSpec{seed: 13, paths: 2, array: 64, src: probes("2us", 512) + `
T2 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.2, 1.1.0.2, udp, 9, 7])
    .set(length, 333)
    .set(interval, random('E', 1500, 0))
    .set(port, 0)
`, cable: 0, cuts: cutsEvery(6_100_003, 40*netsim.Microsecond)}
	var elidedAtAttach uint64
	el := runLoopDifferential(t, s, func(i int, b *loopBed, elided bool) {
		if i != 2 {
			return
		}
		if elided {
			if st := b.ht.Switch.LoopStats(); st.Modelled == 0 {
				t.Fatalf("nothing modelled when the trace is attached: %+v", st)
			}
		}
		b.ht.EnableTrace(obs.NewTraceSet().New("tester"))
		if elided {
			st := b.ht.Switch.LoopStats()
			if st.Modelled != 0 {
				t.Fatalf("%d copies still modelled under a trace", st.Modelled)
			}
			elidedAtAttach = st.ElidedPasses
		}
	})
	if st := el.ht.Switch.LoopStats(); st.ElidedPasses != elidedAtAttach || elidedAtAttach == 0 {
		t.Fatalf("%d passes elided at attach, %d at the end: a traced switch elides nothing", elidedAtAttach, st.ElidedPasses)
	}
}

// Loading a second task replaces the pipelines under copies the model is
// holding: their account is settled under the old program, and they carry on
// under the new one (here: as templates the new program also names).
func TestLoopWakeOnRedeploy(t *testing.T) {
	s := loopSpec{seed: 14, paths: 1, array: 32, src: probes("3us", 300),
		cable: testbed.DefaultCableDelay, cuts: cutsEvery(8_000_019, 48*netsim.Microsecond)}
	second := probes("900ns", 2000) + `
T2 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.2, 1.1.0.2, udp, 9, 7])
    .set(interval, 5us)
    .set(port, 0)
`
	el := runLoopDifferential(t, s, func(i int, b *loopBed, elided bool) {
		if i != 2 {
			return
		}
		if elided && b.ht.Switch.LoopStats().Modelled == 0 {
			t.Fatal("nothing modelled when the second task loads")
		}
		if err := b.ht.LoadTaskSource("second", second); err != nil {
			t.Fatal(err)
		}
		if !elided {
			b.ht.Switch.SetIdleOracle(nil)
		}
		b.tapPasses()
		if err := b.ht.Start(); err != nil {
			t.Fatal(err)
		}
	})
	if el.ht.Sender.FiredCount(2) == 0 {
		t.Fatal("the second task's T2 never fired")
	}
}

// A finished stream idles forever: no event is scheduled for its copies, and
// the recirculation counters are still exact at any boundary.
func TestLoopIdlesForeverOnceTheStreamEnds(t *testing.T) {
	s := loopSpec{seed: 15, paths: 1, array: 64, src: `
T1 = trigger()
    .set([dip, sip, proto, sport], [9.9.9.9, 1.1.0.1, udp, 7])
    .set(dport, [1, 2, 3, 4, 5])
    .set(loop, 3)
    .set(interval, 500ns)
    .set(port, 0)
`, cable: 0, cuts: []netsim.Time{netsim.Time(16 * netsim.Microsecond), 16_000_001, 16_000_573, 16_345_678,
		netsim.Time(20 * netsim.Microsecond), 20_000_001, netsim.Time(400 * netsim.Microsecond)}}
	var events uint64
	var passes uint64
	el := runLoopDifferential(t, s, func(i int, b *loopBed, elided bool) {
		if elided && i == 0 {
			events = b.ht.Sim.Executed
			passes = b.ht.Switch.Port(asic.RecircPortBase).TxPackets
		}
		if elided && b.ht.Sim.Pending() != 0 {
			t.Fatalf("%d events pending under a loop that idles forever", b.ht.Sim.Pending())
		}
	})
	if got := el.ht.Sender.FiredCount(1); got != 15 {
		t.Fatalf("fired %d, want 15 (3 loops x 5)", got)
	}
	if got := el.ht.Sim.Executed - events; got != 0 {
		t.Fatalf("%d events after the stream ended, want none", got)
	}
	if got := el.ht.Switch.Port(asic.RecircPortBase).TxPackets - passes; got < 50_000 {
		t.Fatalf("%d recirculation passes accounted after the stream ended, want the loop still turning", got)
	}
}

// Templates on two recirculation paths share one jitter stream: the order of
// their egress passes across the two ports is part of the state.
func TestLoopElisionTwoPaths(t *testing.T) {
	s := loopSpec{seed: 16, paths: 2, array: 32, cable: 1234, cuts: cutsEvery(7_000_007, 56*netsim.Microsecond)}
	for i, iv := range []string{"1300ns", "random('U', 500, 2500)", "4us"} {
		s.src += fmt.Sprintf(`
T%d = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.%d, 1.1.0.%d, udp, 9, 7])
    .set(ipv4.id, range(0, 999, 1))
    .set(length, %d)
    .set(interval, %s)
    .set(port, 0)
`, i+1, i+1, i+1, 64+i*300, iv)
	}
	s.src += "Q1 = query().map(p -> (ipv4.id)).reduce(keys={ipv4.sip, ipv4.id}, func=max)\n"
	el := runLoopDifferential(t, s, nil)
	for i := 0; i < 2; i++ {
		if pt := el.ht.Switch.Port(asic.RecircPortBase + i); pt.TxPackets == 0 {
			t.Fatalf("recirculation path %d carried nothing", i)
		}
	}
	if st := el.ht.Switch.LoopStats(); st.ElidedPasses == 0 || st.LiveHops == 0 {
		t.Fatalf("stats %+v: want modelled and executed hops side by side", st)
	}
}

// TestSALUSequenceUnderElision is TestSALUSequencePinned's run without the
// trace, so the loop model is active: every register must have been accessed
// exactly as often as the traced, event-per-hop run recorded SALU operations
// on it, and the statistics and reports must be the same.
func TestSALUSequenceUnderElision(t *testing.T) {
	run := func(traced bool) (*Tester, map[string]uint64, string) {
		ht := New(Config{Ports: []float64{100}, Seed: 7})
		ts := obs.NewTraceSet()
		if traced {
			ht.EnableTrace(ts.New("tester"))
		}
		if err := loadWithArraySize(ht, "salu", saluTask, 64); err != nil {
			t.Fatal(err)
		}
		refl := testbed.NewReflector(ht.Sim, "refl", 100)
		testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, testbed.DefaultCableDelay)
		if err := ht.Start(); err != nil {
			t.Fatal(err)
		}
		ht.RunFor(600 * netsim.Microsecond)
		ops := map[string]uint64{}
		if traced {
			for _, r := range ts.Traces()[0].Records() {
				if r.Kind == obs.KindSALU {
					ops[r.Label]++
				}
			}
		} else {
			var regs []*asic.RegisterArray
			for _, tm := range ht.Program.Templates {
				regs = append(regs, ht.Sender.State(tm.ID).Registers()...)
			}
			for _, q := range ht.Receiver.States() {
				for _, r := range q.Registers() {
					// Only observed arrays appear in the trace.
					if q.Table == nil || !strings.HasPrefix(r.Name, "kv-fifo") {
						regs = append(regs, r)
					}
				}
			}
			for _, r := range regs {
				ops[r.Name] += r.Accesses
			}
		}
		out := ""
		for _, q := range ht.Receiver.States() {
			out += fmt.Sprintf("q%d %d %d %d\n", q.Plan.ID, q.Matches, q.MatchedBytes, q.DelayCount)
			if ct := q.Table; ct != nil {
				out += fmt.Sprintf("table %d %d %d %d %d %d\n", ct.Updates, ct.ExactHits, ct.FIFOPushes, ct.FIFODrains, ct.FIFODrops, ct.Evictions)
			}
		}
		for _, r := range ht.Reports() {
			out += fmt.Sprintf("report %s %d %d %d %d\n", r.Query, r.Matches, r.Bytes, r.Distinct, r.DelaySamples)
		}
		return ht, ops, out
	}
	_, want, wantOut := run(true)
	ht, got, gotOut := run(false)
	if st := ht.Switch.LoopStats(); st.ElidedPasses < 10_000 {
		t.Fatalf("only %d passes elided: the untraced run was not under the model", st.ElidedPasses)
	}
	if gotOut != wantOut {
		t.Fatalf("statistics and reports differ:\nelided:\n%straced:\n%s", gotOut, wantOut)
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("register %s: %d accesses counted under elision, %d SALU records in the traced run", name, got[name], n)
		}
	}
}
