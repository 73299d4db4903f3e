package netsim

import (
	"fmt"
	"sort"
	"sync"
)

// Conservative parallel discrete-event engine
//
// The Engine shards a simulation into logical processes (LPs) — in the
// testbed mapping, one per switch ASIC, DUT and server/sink — each owning its
// own Sim (clock + timing wheel). LPs exchange events only through explicitly
// registered channels, each carrying a positive lookahead: the minimum
// virtual-time distance between an LP executing an event and the earliest
// cross-channel event that execution can cause. In the testbed the lookahead
// is derived from calibrated physics (internal/asic/timing.go): minimum wire
// serialization time at the link rate, plus cable propagation, plus — when
// the receiver is a switch port — the fixed MAC/ingress-pipeline latency.
//
// Synchronization is windowed (epochs). Before each epoch the coordinator
// computes every LP's next pending timestamp, their minimum (the classic
// lower-bound timestamp, LBTS), each LP's earliest possible execution time
// by fixed-point relaxation over the channel graph,
//
//	et(i) = min(nextAt(i), min over channels j->i of et(j) + lookahead(j->i))
//
// and from it a per-LP horizon:
//
//	horizon(i) = min over channels j->i of et(j) + lookahead(j->i)
//
// An LP may execute every event strictly before its horizon: any message a
// neighbor j can still send — including one j itself has yet to receive —
// arrives no earlier than et(j)+lookahead. Because lookahead is strictly
// positive, the LP owning the LBTS always has a horizon above it, so every
// epoch makes progress and the engine cannot deadlock. LPs with work run in parallel on a worker pool; cross-LP sends
// are staged in per-destination outboxes (bounded — an LP that stages
// outboxCap messages pauses until the next epoch, the flow-control equivalent
// of a bounded channel) and routed to destination inboxes between epochs.
//
// Determinism (the bit-identical-merge argument, DESIGN.md §10): messages are
// sequence-stamped by construction — per-source FIFO staging order, sources
// drained in LP-rank order — and each message carries schedAt, the virtual
// time the sequential engine would have scheduled the corresponding event
// at (the sender-side transmit-completion time). Inbox filing sorts stably by
// (at, schedAt) and the event comparator orders by (at, schedAt, seq), so a
// remote event lands in exactly the slot the sequential run gives it relative
// to every locally scheduled event. The one residual tie class — messages
// from two *different* source LPs with identical (at, schedAt) at one
// destination — is broken by source LP rank, which can differ from the
// sequential interleave; it cannot arise in the testbed mapping, where every
// attachment point has exactly one peer, so each (at, schedAt) pair at a
// destination has a unique sender. No wall-clock reads, no global RNG, and
// no map iteration anywhere in the scheduler: epoch boundaries are pure
// functions of event timestamps, so results do not depend on the worker
// count or on goroutine scheduling.

// DefaultOutboxCap bounds how many cross-LP messages one LP may stage within
// a single epoch before pausing (bounded-channel flow control).
const DefaultOutboxCap = 4096

// remoteMsg is one staged cross-LP event.
type remoteMsg struct {
	at      Time // execution time on the destination clock
	schedAt Time // the sequential engine's schedule time, for merge order
	parent  Time // the schedAt of the event that schedules it sequentially
	fn      func(any)
	arg     any
	// pre, when non-nil, is an early side effect the sequential engine
	// makes observable at preAt, before the event itself runs at `at`
	// (e.g. an RX-counter credit at wire arrival, one ingress latency
	// ahead of pipeline entry). If a RunUntil boundary lands in
	// [preAt, at), the engine runs pre(arg) at the boundary — exactly
	// once — so counters sampled there match the sequential run. When no
	// boundary intervenes, pre never fires and fn must perform the side
	// effect itself (see Sim.PostRemotePre).
	pre   func(any)
	preAt Time
}

// lpState is the engine-side state of one logical process.
type lpState struct {
	sim  *Sim
	eng  *Engine
	rank int
	name string

	// outbox[d] stages messages for LP d during an epoch; staged counts
	// them for the flow-control cap. Only the owning worker touches these
	// during an epoch; the coordinator drains them between epochs.
	outbox [][]remoteMsg
	staged int

	// inbox holds routed messages awaiting filing at the LP's next epoch.
	inbox []remoteMsg

	nextAt   Time
	et       Time // earliest possible execution time (see RunUntil)
	horizon  Time
	runnable bool

	// panicked holds what an epoch of this LP panicked with on a worker
	// goroutine, for RunUntil to raise again on its caller's.
	panicked any

	// Lifetime counters, surfaced by Engine.Stats. sent is bumped by the
	// owning worker (postRemote); received and stalls by the coordinator.
	sent     uint64
	received uint64
	stalls   uint64
}

// edge is a registered channel before sealing.
type edge struct {
	src, dst  int
	lookahead Duration
}

// inEdge is one incoming channel of an LP after sealing.
type inEdge struct {
	src       int
	lookahead Duration
}

// Engine coordinates a set of LPs. Build LPs with NewLP, register every
// cross-LP channel with Channel, then drive virtual time with RunUntil /
// RunFor. The topology seals at the first run.
type Engine struct {
	workers   int
	outboxCap int

	lps     []*lpState
	edges   []edge
	la      [][]Duration // la[src][dst]; 0 = no channel
	inEdges [][]inEdge   // per-destination, ascending source rank
	chans   []edge       // deduplicated channel list, for ET relaxation
	sealed  bool

	clock Time
	// deadline is the active RunUntil bound; fileInbox retains messages
	// beyond it so their boundary side effects (remoteMsg.pre) stay
	// reachable until the run that executes them.
	deadline Time

	// Lifetime counters, surfaced by Stats.
	epochs   uint64
	lastLBTS Time
}

// NewEngine builds an engine whose epochs run on up to workers goroutines.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers, outboxCap: DefaultOutboxCap}
}

// NewLP adds a logical process and returns its simulator. LP rank is
// creation order; it is the source-priority used when merging same-timestamp
// cross-LP messages, so topology construction order is part of the seed.
func (e *Engine) NewLP(name string) *Sim {
	if e.sealed {
		panic("netsim: NewLP after the engine topology sealed")
	}
	s := New()
	lp := &lpState{sim: s, eng: e, rank: len(e.lps), name: name, nextAt: MaxTime}
	s.lp = lp
	e.lps = append(e.lps, lp)
	return s
}

// Workers reports the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Now returns the engine's virtual clock (the deadline of the last RunUntil).
func (e *Engine) Now() Time { return e.clock }

// Channel registers a directed cross-LP channel with the given lookahead:
// every PostRemote from src to dst must target a time at least lookahead
// after src's clock. Lookahead must be positive — that is what guarantees
// epoch progress. Repeat registrations keep the minimum.
func (e *Engine) Channel(src, dst *Sim, lookahead Duration) {
	if e.sealed {
		panic("netsim: Channel after the engine topology sealed")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("netsim: channel lookahead must be positive, got %v", lookahead))
	}
	sl, dl := src.lp, dst.lp
	if sl == nil || dl == nil || sl.eng != e || dl.eng != e {
		panic("netsim: Channel endpoints must be LPs of this engine")
	}
	if sl == dl {
		panic("netsim: Channel endpoints must be distinct LPs")
	}
	e.edges = append(e.edges, edge{src: sl.rank, dst: dl.rank, lookahead: lookahead})
}

// seal freezes the topology: builds the lookahead matrix, the per-LP
// in-edge lists (ascending source rank — the deterministic drain order) and
// the per-LP outboxes.
func (e *Engine) seal() {
	if e.sealed {
		return
	}
	n := len(e.lps)
	e.la = make([][]Duration, n)
	for i := range e.la {
		e.la[i] = make([]Duration, n)
	}
	for _, ed := range e.edges {
		if cur := e.la[ed.src][ed.dst]; cur == 0 || ed.lookahead < cur {
			e.la[ed.src][ed.dst] = ed.lookahead
		}
	}
	e.inEdges = make([][]inEdge, n)
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			if d := e.la[src][dst]; d > 0 {
				e.inEdges[dst] = append(e.inEdges[dst], inEdge{src: src, lookahead: d})
				e.chans = append(e.chans, edge{src: src, dst: dst, lookahead: d})
			}
		}
	}
	for _, lp := range e.lps {
		lp.outbox = make([][]remoteMsg, n)
	}
	e.sealed = true
}

// PostRemote stages fn(arg) for execution at absolute time at on dst, a
// different LP of the same engine. schedAt is the virtual time the sequential
// engine would have scheduled this event at (e.g. the transmit-completion
// time of the frame being delivered); it determines merge order against
// same-timestamp events and must satisfy s.Now() <= schedAt <= at. The target
// time must respect the registered channel lookahead — violations panic, as
// they would silently corrupt the conservative synchronization invariant.
func (s *Sim) PostRemote(dst *Sim, at, schedAt Time, fn func(any), arg any) {
	s.postRemote(dst, at, schedAt, s.now, fn, arg, nil, 0)
}

// PostRemotePre is PostRemote with an early boundary side effect: the
// sequential engine makes some part of the event observable at preAt < at
// (e.g. crediting a port's RX counters at wire arrival, one ingress latency
// before pipeline entry). If a RunUntil deadline lands in [preAt, at), the
// engine invokes pre(arg) at that boundary — at most once per message — so
// state sampled at the boundary matches the sequential run bit for bit.
// When the message instead executes normally, pre is never called: fn must
// detect (via arg) whether the side effect already ran and apply it
// idempotently. pre runs on the coordinator goroutine while all LP workers
// are quiescent, so it may touch the destination LP's state.
//
// parentSchedAt is what Running reports as the parent stamp while fn runs:
// the schedule time of the sequential event that schedules this one (for a
// deferred port ingress, the cable hop scheduled at the sender's
// serialization end). PostRemote's events stand for that cable hop itself,
// whose parent is the transmit completion scheduled at the sender's now; a
// sender whose transmit completion was scheduled at another moment passes
// that moment here, with a nil pre if there is no early side effect.
func (s *Sim) PostRemotePre(dst *Sim, at, schedAt, parentSchedAt, preAt Time, pre, fn func(any), arg any) {
	s.postRemote(dst, at, schedAt, parentSchedAt, fn, arg, pre, preAt)
}

func (s *Sim) postRemote(dst *Sim, at, schedAt, parent Time, fn func(any), arg any, pre func(any), preAt Time) {
	src := s.lp
	if src == nil || dst.lp == nil || src.eng != dst.lp.eng {
		panic("netsim: PostRemote requires src and dst LPs of one engine")
	}
	e := src.eng
	la := e.la[src.rank][dst.lp.rank]
	if la == 0 {
		panic("netsim: PostRemote without a registered Channel")
	}
	if at < s.now.Add(la) {
		panic(fmt.Sprintf("netsim: PostRemote at %v violates lookahead %v from now %v",
			at, la, s.now))
	}
	if schedAt > at {
		schedAt = at
	}
	if schedAt < s.now {
		schedAt = s.now
	}
	if pre != nil {
		if preAt > at {
			preAt = at
		}
		if preAt < s.now {
			preAt = s.now
		}
	}
	src.outbox[dst.lp.rank] = append(src.outbox[dst.lp.rank],
		remoteMsg{at: at, schedAt: schedAt, parent: parent, fn: fn, arg: arg, pre: pre, preAt: preAt})
	src.staged++
	src.sent++
}

// fileInbox files routed messages due within the active deadline into the
// wheel in deterministic merge order. Messages beyond the deadline stay in
// the inbox: they are folded into nextAt at every run boundary (so a later
// RunUntil picks them up) and keeping them as remoteMsgs preserves their
// boundary side effects (pre) until the run that executes them.
func (lp *lpState) fileInbox() {
	ms := lp.inbox
	if len(ms) == 0 {
		return
	}
	// Stable sort by (at, schedAt): staging order — per-source FIFO, sources
	// in rank order — breaks the remaining ties deterministically. Retained
	// messages keep their sorted (hence staging-relative) order, so
	// re-sorting them alongside later arrivals reproduces the order a
	// single-shot filing would give.
	if len(ms) > 1 {
		sort.SliceStable(ms, func(i, j int) bool {
			if ms[i].at != ms[j].at {
				return ms[i].at < ms[j].at
			}
			return ms[i].schedAt < ms[j].schedAt
		})
	}
	s := lp.sim
	deadline := lp.eng.deadline
	keep := ms[:0]
	for i := range ms {
		m := &ms[i]
		if m.at > deadline {
			keep = append(keep, *m)
			continue
		}
		ev := s.alloc(m.at) // panics if at < now: a lookahead violation
		ev.schedAt, ev.parent = m.schedAt, m.parent
		ev.fn2, ev.arg = m.fn, m.arg
		s.schedule(ev)
	}
	// Clear vacated tail slots so retired callback references can be
	// collected.
	for i := len(keep); i < len(ms); i++ {
		ms[i] = remoteMsg{}
	}
	lp.inbox = keep
}

// runEpoch files the inbox and executes events strictly before the horizon,
// pausing early if the outbox cap is reached. It then refreshes nextAt.
// Runs on a worker goroutine; touches only this LP's state.
func (lp *lpState) runEpoch() {
	lp.fileInbox()
	s := lp.sim
	s.epoch++
	cap := lp.eng.outboxCap
	for lp.staged < cap {
		ev := s.peek()
		if ev == nil || ev.at >= lp.horizon {
			break
		}
		s.step()
	}
	lp.refreshNextAt()
}

// runGuarded is runEpoch on a worker goroutine: a panic is kept for RunUntil,
// whose caller is the one that can recover it.
func (lp *lpState) runGuarded() {
	defer func() {
		if r := recover(); r != nil {
			lp.panicked = r
		}
	}()
	lp.runEpoch()
}

// refreshNextAt recomputes the LP's earliest pending event time.
func (lp *lpState) refreshNextAt() {
	if ev := lp.sim.peek(); ev != nil {
		lp.nextAt = ev.at
	} else {
		lp.nextAt = MaxTime
	}
}

// route drains every LP's outboxes into the destination inboxes, sources in
// rank order (the deterministic part of the sequence stamp).
func (e *Engine) route() {
	for _, src := range e.lps {
		if src.staged == 0 {
			continue
		}
		for d := range src.outbox {
			ms := src.outbox[d]
			if len(ms) == 0 {
				continue
			}
			dst := e.lps[d]
			dst.inbox = append(dst.inbox, ms...)
			dst.received += uint64(len(ms))
			for i := range ms {
				ms[i] = remoteMsg{}
			}
			src.outbox[d] = ms[:0]
		}
		src.staged = 0
	}
}

// foldInbox folds pending inbox message times into each LP's nextAt, so the
// LBTS and per-LP horizons account for messages not yet filed into a wheel.
func (e *Engine) foldInbox() {
	for _, lp := range e.lps {
		for i := range lp.inbox {
			if lp.inbox[i].at < lp.nextAt {
				lp.nextAt = lp.inbox[i].at
			}
		}
	}
}

// RunUntil executes all events with timestamps <= deadline across every LP,
// then advances every LP clock to the deadline — the parallel counterpart of
// Sim.RunUntil, with bit-identical results.
func (e *Engine) RunUntil(deadline Time) {
	e.seal()
	e.deadline = deadline
	// Work can be pending from before this run: outboxes staged by setup
	// code outside any epoch, and inbox messages carried past the previous
	// run's deadline. Route and fold them into nextAt before computing the
	// first LBTS — otherwise a run whose wheels are quiet would return
	// immediately and advance every clock past the pending messages,
	// silently dropping them.
	e.route()
	for _, lp := range e.lps {
		lp.refreshNextAt()
	}
	e.foldInbox()

	work := make(chan *lpState, len(e.lps))
	var wg sync.WaitGroup
	nw := e.workers
	if nw > len(e.lps) {
		nw = len(e.lps)
	}
	for w := 0; w < nw; w++ {
		go func() {
			for lp := range work {
				lp.runGuarded()
				wg.Done()
			}
		}()
	}
	defer close(work)

	for {
		// Lower-bound timestamp across all LPs.
		lbts := MaxTime
		for _, lp := range e.lps {
			if lp.nextAt < lbts {
				lbts = lp.nextAt
			}
		}
		if lbts == MaxTime || lbts > deadline {
			break
		}
		e.epochs++
		e.lastLBTS = lbts

		// Earliest possible execution times, by fixed-point relaxation over
		// the channel graph: an LP can execute nothing before its own next
		// pending event, or before a remote event whose sender's earliest
		// execution plus lookahead reaches it. The relaxation makes idle
		// intermediate LPs bound their successors transitively — an LP with
		// an empty wheel can still relay a message it has yet to receive.
		// Positive lookaheads bound the passes by the longest acyclic chain.
		for _, lp := range e.lps {
			lp.et = lp.nextAt
		}
		for changed := true; changed; {
			changed = false
			for _, ch := range e.chans {
				if st := e.lps[ch.src].et; st != MaxTime {
					if t := st.Add(ch.lookahead); t < e.lps[ch.dst].et {
						e.lps[ch.dst].et = t
						changed = true
					}
				}
			}
		}

		// Per-LP horizons (exclusive bounds), capped at deadline+1 so
		// events exactly at the deadline still execute this run. The cap
		// saturates at MaxTime: deadline+1 would overflow to a negative
		// horizon and starve every LP.
		for _, lp := range e.lps {
			h := MaxTime
			for _, in := range e.inEdges[lp.rank] {
				if t := e.lps[in.src].et; t != MaxTime {
					if ht := t.Add(in.lookahead); ht < h {
						h = ht
					}
				}
			}
			if deadline < MaxTime && h > deadline+1 {
				h = deadline + 1
			}
			lp.horizon = h
			// nextAt folds pending inbox messages, so it alone decides
			// runnability; inboxes whose earliest message sits at or past
			// the horizon can wait for a later epoch to be filed.
			lp.runnable = lp.nextAt < h
			if !lp.runnable && lp.nextAt <= deadline {
				lp.stalls++
			}
		}

		// Run the epoch: inline when a single LP has work (the common
		// bursty-phase case), otherwise fan out to the pool.
		n := 0
		var solo *lpState
		for _, lp := range e.lps {
			if lp.runnable {
				n++
				solo = lp
			}
		}
		if n == 1 {
			solo.runEpoch()
		} else {
			wg.Add(n)
			for _, lp := range e.lps {
				if lp.runnable {
					work <- lp
				}
			}
			wg.Wait()
			// An event that panicked on a worker panics here, on the
			// caller's goroutine, the lowest-ranked LP's first.
			for _, lp := range e.lps {
				if p := lp.panicked; p != nil {
					lp.panicked = nil
					panic(p)
				}
			}
		}

		// Route staged sends and fold the arrivals into nextAt.
		e.route()
		e.foldInbox()
	}

	// Boundary flush: messages still pending beyond the deadline may carry
	// an early side effect the sequential engine already made observable
	// (remoteMsg.pre at preAt <= deadline < at). Run those now, once, so
	// state sampled at this boundary is bit-identical to the sequential
	// run. All workers are quiescent here; LP rank and staging order make
	// the flush order deterministic.
	for _, lp := range e.lps {
		for i := range lp.inbox {
			m := &lp.inbox[i]
			if m.pre != nil && m.preAt <= deadline {
				m.pre(m.arg)
				m.pre = nil
			}
		}
	}

	for _, lp := range e.lps {
		if lp.sim.now < deadline {
			lp.sim.now = deadline
		}
	}
	if e.clock < deadline {
		e.clock = deadline
	}
	// Run-boundary flush of lazily accounted state, LP by LP in rank order;
	// the workers are quiescent.
	for _, lp := range e.lps {
		lp.sim.runBoundary()
	}
}

// RunFor advances the engine clock by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.clock.Add(d)) }
