package netsim

import (
	"fmt"
	"testing"
)

// Differential harness. Nodes bounce order-sensitive messages at quantized
// timestamps, so same-due-time collisions between remote arrivals and locally
// scheduled events are common — exactly the merge the (at, schedAt, seq)
// comparator must get right.
//
// In aligned mode, every node's event instants sit on a distinct picosecond
// residue class (mod 1 ns), mirroring the real testbed, where per-link
// physics make it essentially impossible for two different LPs to schedule
// with identical (at, schedAt): due-time ties stay frequent, but schedAt
// always identifies a unique origin LP, and the engine must match a
// sequential single-Sim run bit for bit. Unaligned mode allows genuine
// cross-LP (at, schedAt) ties; there the engine promises a deterministic
// source-rank order, not the sequential interleave, so the assertion is
// worker-count invariance.
const (
	nodeLA     = 100 * Nanosecond
	nodeTTL    = 7
	nodeWindow = 50 * Microsecond
)

type testNode struct {
	id    int
	sim   *Sim
	next  []*testNode // forwarding targets (ring: exactly one)
	rng   *RNG
	align bool
	post  func(src, dst *testNode, at Time, val uint64, ttl int)

	state uint64
	log   []int64 // (at, val) pairs in execution order
}

// target places a raw schedule time onto dst's residue class (aligned mode).
// The shift is under 1 ns either way; callers leave >= 1 ns of slack above
// any lookahead bound.
func (n *testNode) target(raw Time, dstID int) Time {
	if !n.align {
		return raw
	}
	const class = Time(Nanosecond)
	at := raw - raw%class + Time(dstID)
	if at < raw {
		at += class
	}
	return at
}

type testMsg struct {
	dst *testNode
	val uint64
	ttl int
}

func runTestMsg(a any) {
	m := a.(*testMsg)
	m.dst.receive(m.val, m.ttl)
}

func (n *testNode) receive(val uint64, ttl int) {
	now := n.sim.Now()
	n.state = n.state*1000003 + val // order-sensitive fold
	n.log = append(n.log, int64(now), int64(val))
	if ttl <= 0 {
		return
	}
	// Forward 1-2 messages onward; quantized delays make same-due-time
	// arrivals at the destination likely.
	fanout := 1 + int(n.rng.Uint64()%2)
	for i := 0; i < fanout; i++ {
		dst := n.next[int(n.rng.Uint64()%uint64(len(n.next)))]
		delay := nodeLA + Duration(1+n.rng.Uint64()%4)*50*Nanosecond
		n.post(n, dst, n.target(now.Add(delay), dst.id), n.state^uint64(ttl), ttl-1)
	}
	// Half the time, also schedule a local echo at a quantized offset that
	// can collide with remote arrivals (including offsets below the channel
	// lookahead — local events are not lookahead-bound).
	if n.rng.Uint64()%2 == 0 {
		delay := Duration(1+n.rng.Uint64()%6) * 50 * Nanosecond
		n.sim.AtCall(n.target(now.Add(delay), n.id), runTestMsg,
			&testMsg{dst: n, val: n.state ^ 0xeeee, ttl: ttl - 1})
	}
}

// buildNodes wires numNodes nodes. With eng == nil all nodes share one
// sequential Sim; otherwise each node is its own LP. chords=false builds a
// ring (unique sender per destination); chords=true adds extra edges so
// destinations merge traffic from several senders. align places each node's
// instants on its own ps residue class (see the harness comment).
func buildNodes(eng *Engine, seed int64, numNodes int, chords, align bool) []*testNode {
	var shared *Sim
	if eng == nil {
		shared = New()
	}
	nodes := make([]*testNode, numNodes)
	for i := range nodes {
		s := shared
		if eng != nil {
			s = eng.NewLP(fmt.Sprintf("node%d", i))
		}
		nodes[i] = &testNode{
			id:    i,
			sim:   s,
			rng:   NewRNG(seed, fmt.Sprintf("node%d", i)),
			align: align,
		}
	}
	topo := NewRNG(seed, "topology")
	for i, n := range nodes {
		for j, m := range nodes {
			if i == j {
				continue
			}
			ringEdge := j == (i+1)%numNodes
			if !ringEdge && (!chords || topo.Uint64()%2 == 0) {
				continue
			}
			n.next = append(n.next, m)
			if eng != nil {
				eng.Channel(n.sim, m.sim, nodeLA)
			}
		}
	}
	for _, n := range nodes {
		if eng == nil {
			n.post = func(src, dst *testNode, at Time, val uint64, ttl int) {
				src.sim.AtCall(at, runTestMsg, &testMsg{dst: dst, val: val, ttl: ttl})
			}
		} else {
			n.post = func(src, dst *testNode, at Time, val uint64, ttl int) {
				src.sim.PostRemote(dst.sim, at, src.sim.Now(), runTestMsg,
					&testMsg{dst: dst, val: val, ttl: ttl})
			}
		}
	}
	// Seed traffic: a few quantized-time injections per node.
	for _, n := range nodes {
		for k := 0; k < 3; k++ {
			at := Time(1+n.rng.Uint64()%20) * Time(Microsecond)
			n.sim.AtCall(n.target(at, n.id), runTestMsg,
				&testMsg{dst: n, val: uint64(n.id*100 + k), ttl: nodeTTL})
		}
	}
	return nodes
}

func compareNodes(t *testing.T, label string, want, got []*testNode) {
	t.Helper()
	for i := range want {
		if want[i].state != got[i].state {
			t.Errorf("%s: node %d state = %#x, want %#x", label, i, got[i].state, want[i].state)
		}
		if len(want[i].log) != len(got[i].log) {
			t.Fatalf("%s: node %d log length = %d, want %d",
				label, i, len(got[i].log)/2, len(want[i].log)/2)
		}
		for k := range want[i].log {
			if want[i].log[k] != got[i].log[k] {
				t.Fatalf("%s: node %d log entry %d = %d, want %d",
					label, i, k/2, got[i].log[k], want[i].log[k])
			}
		}
	}
}

func TestEngineMatchesSequential(t *testing.T) {
	for _, chords := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 42} {
			for _, numNodes := range []int{2, 5, 9} {
				ref := buildNodes(nil, seed, numNodes, chords, true)
				ref[0].sim.RunUntil(Time(nodeWindow))
				total := 0
				for _, n := range ref {
					total += len(n.log) / 2
				}
				if total == 0 {
					t.Fatalf("seed %d n=%d: reference run executed nothing", seed, numNodes)
				}
				for _, workers := range []int{1, 2, 4, 8} {
					eng := NewEngine(workers)
					nodes := buildNodes(eng, seed, numNodes, chords, true)
					eng.RunUntil(Time(nodeWindow))
					compareNodes(t,
						fmt.Sprintf("chords=%v seed=%d n=%d workers=%d", chords, seed, numNodes, workers),
						ref, nodes)
					for _, n := range nodes {
						if n.sim.Now() != Time(nodeWindow) {
							t.Fatalf("LP %d clock = %v, want %v", n.id, n.sim.Now(), Time(nodeWindow))
						}
					}
				}
			}
		}
	}
}

// Unaligned chords produce genuine cross-LP (at, schedAt) ties, where the
// engine promises the deterministic source-rank order rather than the
// sequential interleave: results must not depend on the worker count.
func TestEngineWorkerCountInvariant(t *testing.T) {
	for _, seed := range []int64{5, 19} {
		refEng := NewEngine(1)
		ref := buildNodes(refEng, seed, 8, true, false)
		refEng.RunUntil(Time(nodeWindow))
		for _, workers := range []int{2, 4, 8} {
			eng := NewEngine(workers)
			nodes := buildNodes(eng, seed, 8, true, false)
			eng.RunUntil(Time(nodeWindow))
			compareNodes(t, fmt.Sprintf("chords seed=%d workers=%d", seed, workers), ref, nodes)
		}
	}
}

// A tiny outbox cap forces the flow-control pause path (staged == cap) on
// nearly every epoch; results must still match the sequential reference.
func TestEngineSmallOutboxCap(t *testing.T) {
	const seed, numNodes = 3, 6
	ref := buildNodes(nil, seed, numNodes, false, true)
	ref[0].sim.RunUntil(Time(nodeWindow))
	eng := NewEngine(4)
	eng.outboxCap = 2
	nodes := buildNodes(eng, seed, numNodes, false, true)
	eng.RunUntil(Time(nodeWindow))
	compareNodes(t, "outboxCap=2", ref, nodes)
}

// Repeated RunUntil calls must compose: two half-window runs equal one
// full-window run.
func TestEngineRunUntilComposes(t *testing.T) {
	const seed, numNodes = 11, 5
	ref := buildNodes(nil, seed, numNodes, false, true)
	ref[0].sim.RunUntil(Time(nodeWindow))
	eng := NewEngine(4)
	nodes := buildNodes(eng, seed, numNodes, false, true)
	eng.RunUntil(Time(nodeWindow) / 2)
	eng.RunFor(nodeWindow / 2)
	compareNodes(t, "split run", ref, nodes)
	if eng.Now() != Time(nodeWindow) {
		t.Fatalf("engine clock = %v, want %v", eng.Now(), Time(nodeWindow))
	}
}

// TestEngineCrossRunBoundaryMessage pins the REVIEW repro: a cross-LP
// message staged beyond one RunUntil's deadline must survive into — and
// execute during — a later RunUntil, even when the intervening runs find
// every wheel empty (the warmup+window double-RunFor composition the
// experiment driver uses).
func TestEngineCrossRunBoundaryMessage(t *testing.T) {
	eng := NewEngine(2)
	a := eng.NewLP("a")
	b := eng.NewLP("b")
	eng.Channel(a, b, 50*Nanosecond)
	fired := false
	var at Time
	a.At(Time(100*Nanosecond), func() {
		a.PostRemote(b, Time(200*Nanosecond), a.Now(), func(any) {
			fired, at = true, b.Now()
		}, nil)
	})
	eng.RunUntil(Time(150 * Nanosecond))
	if fired {
		t.Fatal("message executed before its due time")
	}
	// A second run still short of the due time must neither run nor drop it.
	eng.RunUntil(Time(170 * Nanosecond))
	if fired {
		t.Fatal("message executed before its due time")
	}
	eng.RunUntil(Time(300 * Nanosecond))
	if !fired {
		t.Fatal("message staged across RunUntil boundaries was dropped")
	}
	if at != Time(200*Nanosecond) {
		t.Fatalf("message executed at %v, want 200ns", at)
	}
}

// A PostRemote issued between runs (outside any epoch) sits in the source
// outbox; the next RunUntil must route it even if every wheel is quiet.
func TestEnginePostBetweenRuns(t *testing.T) {
	eng := NewEngine(2)
	a := eng.NewLP("a")
	b := eng.NewLP("b")
	eng.Channel(a, b, 50*Nanosecond)
	eng.RunUntil(Time(100 * Nanosecond)) // seals and idles
	fired := false
	a.PostRemote(b, Time(400*Nanosecond), a.Now(), func(any) { fired = true }, nil)
	eng.RunUntil(Time(500 * Nanosecond))
	if !fired {
		t.Fatal("message posted between runs was dropped")
	}
}

// RunUntil(MaxTime) must terminate: the deadline+1 horizon cap would
// overflow to a negative horizon and starve every LP forever.
func TestEngineRunUntilMaxTime(t *testing.T) {
	eng := NewEngine(2)
	a := eng.NewLP("a")
	b := eng.NewLP("b")
	eng.Channel(a, b, 50*Nanosecond)
	fired := false
	a.At(Time(100*Nanosecond), func() {
		a.PostRemote(b, Time(200*Nanosecond), a.Now(), func(any) { fired = true }, nil)
	})
	eng.RunUntil(MaxTime)
	if !fired {
		t.Fatal("event not executed by RunUntil(MaxTime)")
	}
	if a.Now() != MaxTime || b.Now() != MaxTime {
		t.Fatalf("clocks = %v, %v; want MaxTime", a.Now(), b.Now())
	}
}

// PostRemotePre semantics: the early side effect runs exactly once, and only
// when a run boundary lands in [preAt, at); a message that executes normally
// never sees its pre hook fire.
func TestEnginePostRemotePre(t *testing.T) {
	build := func() (*Engine, *Sim, *Sim) {
		eng := NewEngine(2)
		a := eng.NewLP("a")
		b := eng.NewLP("b")
		eng.Channel(a, b, 50*Nanosecond)
		return eng, a, b
	}
	post := func(a, b *Sim, preRuns, mainRuns *int) {
		a.At(Time(100*Nanosecond), func() {
			a.PostRemotePre(b, Time(300*Nanosecond), Time(200*Nanosecond), Time(150*Nanosecond), Time(200*Nanosecond),
				func(any) { *preRuns++ }, func(any) { *mainRuns++ }, nil)
		})
	}

	// Boundary inside [preAt, at): flush once, then execute in a later run.
	eng, a, b := build()
	var preRuns, mainRuns int
	post(a, b, &preRuns, &mainRuns)
	eng.RunUntil(Time(150 * Nanosecond)) // before preAt: nothing
	if preRuns != 0 || mainRuns != 0 {
		t.Fatalf("after 150ns: pre=%d main=%d, want 0,0", preRuns, mainRuns)
	}
	eng.RunUntil(Time(250 * Nanosecond)) // preAt <= 250 < at: flush
	if preRuns != 1 || mainRuns != 0 {
		t.Fatalf("after 250ns: pre=%d main=%d, want 1,0", preRuns, mainRuns)
	}
	eng.RunUntil(Time(260 * Nanosecond)) // already flushed: not again
	eng.RunUntil(Time(400 * Nanosecond)) // main event executes
	if preRuns != 1 || mainRuns != 1 {
		t.Fatalf("after 400ns: pre=%d main=%d, want 1,1", preRuns, mainRuns)
	}

	// No boundary inside the window: pre never fires.
	eng, a, b = build()
	preRuns, mainRuns = 0, 0
	post(a, b, &preRuns, &mainRuns)
	eng.RunUntil(Time(400 * Nanosecond))
	if preRuns != 0 || mainRuns != 1 {
		t.Fatalf("single run: pre=%d main=%d, want 0,1", preRuns, mainRuns)
	}
}

func TestEngineIdleAdvancesClock(t *testing.T) {
	eng := NewEngine(2)
	a := eng.NewLP("a")
	b := eng.NewLP("b")
	eng.Channel(a, b, Microsecond)
	eng.RunUntil(Time(Millisecond))
	if a.Now() != Time(Millisecond) || b.Now() != Time(Millisecond) {
		t.Fatalf("idle LP clocks = %v, %v; want %v", a.Now(), b.Now(), Time(Millisecond))
	}
}

// An idle intermediate LP must still bound its successors: a -> b -> c with b
// idle may deliver to c no earlier than la(a,b)+la(b,c) after a's next event,
// and c must not run past that transitively-derived horizon. The relay makes
// that chain concrete; missing ET relaxation would panic filing c's inbox.
func TestEngineTransitiveLookahead(t *testing.T) {
	eng := NewEngine(4)
	a := eng.NewLP("a")
	b := eng.NewLP("b")
	c := eng.NewLP("c")
	eng.Channel(a, b, 10*Nanosecond)
	eng.Channel(b, c, 10*Nanosecond)
	// c gets plenty of cheap local work tempting it to run far ahead.
	cHits := 0
	for i := 1; i <= 1000; i++ {
		at := Time(i) * Time(10*Nanosecond)
		c.At(at, func() { cHits++ })
	}
	var relayed, received Time
	a.At(Time(100*Nanosecond), func() {
		a.PostRemote(b, Time(110*Nanosecond), a.Now(), func(any) {
			relayed = b.Now()
			b.PostRemote(c, Time(120*Nanosecond), b.Now(), func(any) {
				received = c.Now()
			}, nil)
		}, nil)
	})
	eng.RunUntil(Time(10 * Microsecond))
	if relayed != Time(110*Nanosecond) || received != Time(120*Nanosecond) {
		t.Fatalf("relay times = %v, %v; want 110ns, 120ns", relayed, received)
	}
	if cHits != 1000 {
		t.Fatalf("c executed %d local events, want 1000", cHits)
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}

func TestEngineValidation(t *testing.T) {
	eng := NewEngine(2)
	a := eng.NewLP("a")
	b := eng.NewLP("b")
	c := eng.NewLP("c")
	standalone := New()

	mustPanic(t, "non-positive lookahead", func() { eng.Channel(a, b, 0) })
	mustPanic(t, "same-LP channel", func() { eng.Channel(a, a, Nanosecond) })
	mustPanic(t, "foreign sim", func() { eng.Channel(a, standalone, Nanosecond) })

	eng.Channel(a, b, Microsecond)
	eng.RunUntil(Time(Nanosecond)) // seals

	mustPanic(t, "NewLP after seal", func() { eng.NewLP("late") })
	mustPanic(t, "Channel after seal", func() { eng.Channel(a, c, Microsecond) })
	mustPanic(t, "post without channel", func() {
		a.PostRemote(c, Time(10*Microsecond), 0, runTestMsg, nil)
	})
	mustPanic(t, "lookahead violation", func() {
		a.PostRemote(b, Time(Microsecond), 0, runTestMsg, nil)
	})
	mustPanic(t, "standalone post", func() {
		standalone.PostRemote(b, Time(10*Microsecond), 0, runTestMsg, nil)
	})
}

// TestEngineStampsAndBoundary: a cross-LP event reports the stamps the
// sequential engine's event would (PostRemote: scheduled by the transmit
// completion the sender scheduled at its own now; PostRemotePre: whatever
// the caller says schedules it), and every LP's boundary hooks run at the end
// of Engine.RunUntil with the LP clock at the deadline.
func TestEngineStampsAndBoundary(t *testing.T) {
	eng := NewEngine(2)
	a := eng.NewLP("a")
	b := eng.NewLP("b")
	eng.Channel(a, b, 50*Nanosecond)
	type stamps struct{ now, schedAt, parent Time }
	var got []stamps
	note := func(any) {
		schedAt, parent, _ := b.Running()
		got = append(got, stamps{b.Now(), schedAt, parent})
	}
	var boundary []Time
	b.OnBoundary(func() { boundary = append(boundary, b.Now()) })
	a.At(Time(100*Nanosecond), func() {
		a.PostRemote(b, Time(200*Nanosecond), Time(160*Nanosecond), note, nil)
		a.PostRemotePre(b, Time(300*Nanosecond), Time(250*Nanosecond), Time(170*Nanosecond), Time(250*Nanosecond),
			func(any) {}, note, nil)
	})
	eng.RunUntil(Time(400 * Nanosecond))
	eng.RunUntil(Time(500 * Nanosecond))
	ns := func(n int64) Time { return Time(n) * Time(Nanosecond) }
	want := []stamps{{ns(200), ns(160), ns(100)}, {ns(300), ns(250), ns(170)}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("cross-LP events ran with stamps %+v, want %+v", got, want)
	}
	if len(boundary) != 2 || boundary[0] != ns(400) || boundary[1] != ns(500) {
		t.Fatalf("boundary hooks ran at %v, want [400ns 500ns]", boundary)
	}
}
