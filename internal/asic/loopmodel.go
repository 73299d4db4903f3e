package asic

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
)

// Idle recirculation is accounted, not simulated (DESIGN.md §9.6).
//
// A template copy circling the recirculation loop is four scheduled hops per
// pass — ingress, TM/egress, MAC transmit, wire end — and almost every pass
// of a rate-limited or trigger-driven template fires nothing. When the
// pipeline owner installs an IdleOracle, copies whose ingress pass provably
// does nothing but recirculate leave the scheduler and live here: each hop is
// one entry in a per-stage queue, advanced lazily to the clock by sync, which
// replays exactly what the four handlers do — the rngLoop draw per egress in
// egress order, txBusyUntil chaining per port in transmit order, the MAC
// stamps, the port and pipeline counters, the per-pass register accesses —
// and nothing else. The model never runs ahead of the clock, and every reader
// and every writer of state it owns syncs it first, so nothing outside this
// file can tell a modelled hop from an executed one.
//
// Ordering. Inside one stage queue entries sit in the order the unelided
// scheduler would run them: a hop's slot is decided by (at, schedAt, seq),
// seq order is the order the parent hops ran in, and parents are processed in
// queue order — by induction the order in which the model creates entries is
// the missing seq, recorded as ord. Loop hops that do run as events (copies
// of a template that is busy) take an ord from the same counter and sync the
// model up to their own (at, schedAt, ord) before they touch shared state, so
// loop-versus-loop order is exact on any number of paths. Against an event
// that is no loop hop (a front-panel ingress, a digest drain) a tie on at is
// resolved on schedAt, then on the parents' schedAt (netsim.Sim.Running);
// the tie that survives both is the residual class §9.6 states, and goes to
// the event.
type IdleOracle interface {
	// IdleUntil returns the virtual time before which an ingress pass of a
	// rid-0 copy of the template does nothing but recirculate — no register
	// cell changes, no FIFO record moves, no digest attaches — provided
	// Switch.WakeLoop is called before any state the answer was derived
	// from is mutated outside such a pass. Zero (or any time not after now)
	// means not idle; netsim.MaxTime means idle until woken. It must also
	// hold that the egress pass of such a copy is a no-op.
	IdleUntil(templateID int) netsim.Time
	// AccountIdle credits passes elided ingress passes of the template with
	// what each would have counted (SALU accesses). The state IdleUntil
	// read has not changed since those passes.
	AccountIdle(templateID int, passes uint64)
}

// Loop stages: which handler a hop stands for.
const (
	loopNone     int8 = iota
	loopIngress       // Switch.ingress
	loopEgress        // Switch.runEgress
	loopTransmit      // Port.transmit
	loopTxDone        // Port.txDone (+ Receive)
)

// Hop latencies, shared with the event-per-hop handlers.
const (
	ingressLatency = netsim.Duration(IngressLatencyNs) * netsim.Nanosecond
	tmLatency      = netsim.Duration(TMLatencyNs) * netsim.Nanosecond
	loopJitter     = RTTJitterSpreadNs * netsim.Nanosecond / 2
	// loopSlice bounds one catch-up slice: no hop creates a successor of an
	// earlier stage less than this far ahead (transmit feeds wire end
	// sooner, and wire end is processed after transmit in every slice).
	loopSlice = tmLatency
	// loopHorizon bounds how far ahead of the clock any modelled hop's next
	// ingress can be known to lie (an egress hop at most one TM latency
	// out: egress + MAC + a 1500 B wire + ingress latency is under 600 ns).
	loopHorizon = 2 * netsim.Microsecond
)

// egressLatency is the fixed egress + MAC latency; loopEgressLatency is what a
// loopback port's calibrated loop applies before its jitter draw.
var (
	egressLatency     = netsim.Duration(EgressLatencyNs+MACTxLatencyNs) * netsim.Nanosecond
	loopEgressLatency = egressLatency - netsim.Ns(pipeFixedSubNs)
)

// loopHop is one modelled copy and the hop it is waiting for: the event that
// hop stands for would run at `at`, was scheduled at schedAt by a hop itself
// scheduled at parent, and is the ord-th loop hop created. A copy sits in
// exactly one stage queue; moving on rewrites the stamps in place and queues
// the slot number, so advancing a hop moves no pointer.
type loopHop struct {
	pkt                 *netproto.Packet
	port                *Port
	tmpl                int
	at, schedAt, parent netsim.Time
	ord                 uint64
}

// hopRing is a growable circular queue of copy slots (power-of-two capacity).
type hopRing struct {
	buf  []int32
	head int
	n    int
}

func (r *hopRing) slot(i int) int32 { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *hopRing) push(slot int32) {
	if r.n == len(r.buf) {
		grown := make([]int32, max(2*len(r.buf), 64))
		for i := 0; i < r.n; i++ {
			grown[i] = r.slot(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = slot
	r.n++
}

func (r *hopRing) pop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// loopTemplate is what the model keeps per template ID.
type loopTemplate struct {
	until  netsim.Time // the oracle's answer as of the last refresh
	count  int         // modelled copies
	passes uint64      // elided ingress passes not yet credited
}

// LoopStats says where a switch's loop passes went.
type LoopStats struct {
	ElidedPasses     uint64 // ingress passes accounted by the model
	Wakes            uint64 // WakeLoop calls that found copies modelled
	CatchupMaxPasses uint64 // most passes one sync accounted
	LiveHops         uint64 // loop hops executed as scheduler events
	Ties             uint64 // modelled hops due at the picosecond of a running event not the model's own
	ResidualTies     uint64 // of those, undecided by (schedAt, parent schedAt)
	Modelled         int    // copies in the model now
}

type loopModel struct {
	sw     *Switch
	oracle IdleOracle

	// hops holds every modelled copy (free lists the vacant slots); the
	// stage queues hold slot numbers, each in execution order. Wire-end
	// hops queue per port (Port.loopDone). n counts modelled copies.
	hops         []loopHop
	free         []int32
	ing, egr, tx hopRing
	n            int
	ord          uint64
	tmpl         []loopTemplate

	// The running sync: its clock, and the event it must stay behind.
	syncing    bool
	pumping    bool // the running event is the model's own pump
	now        netsim.Time
	limStage   int8
	limOrd     uint64
	limThrough bool
	limSchedAt netsim.Time
	limParent  netsim.Time
	inEvent    bool

	// pump is the one scheduler event the model keeps: at pumpAt it syncs,
	// executing the ingress hop pumpOrd for real if that is what it was
	// armed for (pumpOrd 0: a plain catch-up).
	pump    *netsim.Event
	pumpAt  netsim.Time
	pumpOrd uint64

	stats LoopStats
}

// SetIdleOracle installs (or, with nil, removes) the idle oracle. Without
// one — and whenever a trace is attached — every loop hop is a scheduled
// event, as it always was; there is no other switch.
func (sw *Switch) SetIdleOracle(o IdleOracle) {
	if sw.loop == nil {
		if o == nil {
			return
		}
		sw.loop = &loopModel{sw: sw}
		sw.sim.OnBoundary(sw.SyncLoop)
	}
	sw.WakeLoop()
	if o == nil {
		sw.loop.dissolve()
	}
	sw.loop.oracle = o // nil: absorb takes nothing
}

// WakeLoop must be called before any mutation that can end the idleness an
// IdleOracle answer promised (a FIFO push, a queued digest, digest room
// freed, a pipeline or trace change): it brings the modelled loop up to the
// running event, and has the very next modelled hop re-ask the oracle.
func (sw *Switch) WakeLoop() {
	m := sw.loop
	if m == nil || m.n == 0 || m.syncing {
		// Inside a sync the caller is a pass the model itself is running;
		// it re-asks the oracle as soon as that pass returns.
		return
	}
	m.stats.Wakes++
	m.sync(loopNone, 0, false)
	m.arm(true)
}

// SyncLoop brings every counter the loop model owns up to the clock. Readers
// of recirculation-port counters, Pipeline.Packets or the task's register
// Accesses inside an event call it first (Port, Describe and the
// sender/receiver accessors do); between runs the boundary hook has already.
func (sw *Switch) SyncLoop() {
	if m := sw.loop; m != nil && m.n > 0 && !m.syncing {
		m.sync(loopNone, 0, false)
	}
}

// LoopStats reports the loop model's counters (zero on a switch that never
// had an oracle).
func (sw *Switch) LoopStats() LoopStats {
	m := sw.loop
	if m == nil {
		return LoopStats{}
	}
	st := m.stats
	st.Modelled = m.n
	return st
}

// LoopCopies calls fn for every copy the model holds, after syncing it. The
// packets stay the model's; fn may read them.
//
//htlint:ignore deadexport inspection tap: the elision oracle compares the copies the loop model holds
func (sw *Switch) LoopCopies(fn func(pkt *netproto.Packet)) {
	sw.SyncLoop()
	if m := sw.loop; m != nil {
		for i := range m.hops {
			if pkt := m.hops[i].pkt; pkt != nil {
				fn(pkt)
			}
		}
	}
}

// NextJitterDraws consumes and returns one draw of the loop-jitter and the
// replication-jitter streams, the loop model synced first. Differential
// tests call it on both runs at the same instants to pin the streams'
// positions; nothing else should.
//
//htlint:ignore deadexport inspection tap: the elision oracle compares every jitter stream's next draw
func (sw *Switch) NextJitterDraws() (loop, mcast int64) {
	sw.SyncLoop()
	return sw.rngLoop.Int63(), sw.rngMcast.Int63()
}

// loopSync is what an executing loop hop calls before touching state the
// model shares with it: every modelled hop ahead of (now, schedAt, ord) in
// the hop's own stage — and everything strictly earlier — happens first.
func (sw *Switch) loopSync(stage int8, ord uint64) {
	if m := sw.loop; m != nil {
		if ord != 0 {
			m.stats.LiveHops++
		}
		if m.n > 0 {
			m.sync(stage, ord, false)
		}
	}
}

// loopOrd stamps a loop hop about to be scheduled as an event (0 without an
// oracle: nothing will compare it).
func (sw *Switch) loopOrd() uint64 {
	if m := sw.loop; m != nil {
		m.ord++
		return m.ord
	}
	return 0
}

// head returns the first hop of a stage queue and its slot.
func (m *loopModel) head(r *hopRing) (*loopHop, int32) {
	slot := r.slot(0)
	return &m.hops[slot], slot
}

// advance restamps h as the successor hop due after d: scheduled now (h's
// own due time) by h.
func (m *loopModel) advance(h *loopHop, d netsim.Duration) {
	m.ord++
	h.at, h.schedAt, h.parent, h.ord = h.at.Add(d), h.at, h.schedAt, m.ord
}

// release takes a copy out of the model.
func (m *loopModel) release(h *loopHop, slot int32) *netproto.Packet {
	pkt := h.pkt
	m.tmpl[h.tmpl].count--
	m.n--
	*h = loopHop{}
	m.free = append(m.free, slot)
	return pkt
}

// absorb takes a copy bound for a recirculation port out of the scheduler if
// its template is idle right now: the egress hop toEgress was about to
// schedule becomes the model's newest egress entry.
func (m *loopModel) absorb(pkt *netproto.Packet, port *Port, tmDelay netsim.Duration) bool {
	sw := m.sw
	k := pkt.Meta.TemplateID
	if k <= 0 || pkt.Meta.ReplicaID != 0 || m.oracle == nil || sw.trace != nil || tmDelay != tmLatency ||
		port != sw.recirc[k%len(sw.recirc)] {
		return false
	}
	now := sw.sim.Now()
	until := m.oracle.IdleUntil(k)
	if until <= now {
		return false
	}
	for len(m.tmpl) <= k {
		m.tmpl = append(m.tmpl, loopTemplate{})
	}
	t := &m.tmpl[k]
	t.until = until
	t.count++
	m.n++
	parent := now
	if schedAt, _, ok := sw.sim.Running(); ok {
		parent = schedAt
	}
	var slot int32
	if n := len(m.free); n > 0 {
		slot, m.free = m.free[n-1], m.free[:n-1]
	} else {
		slot = int32(len(m.hops))
		m.hops = append(m.hops, loopHop{})
	}
	m.ord++
	// The slot is the model's custody of the circulating copy: release
	// clears it, and the packet leaves by re-entering the scheduler or by
	// Release on a tail drop.
	m.hops[slot] = loopHop{pkt: pkt, port: port, tmpl: k, at: now.Add(tmDelay), schedAt: now, parent: parent, ord: m.ord}
	m.egr.push(slot)
	if !m.syncing && until != netsim.MaxTime {
		// The copy may meet its template's deadline: make sure a pump
		// fires no later than the first pass that can.
		if w := max(until, ingressBound(loopEgress, now.Add(tmDelay))); m.pump == nil || m.pumpAt > w {
			m.schedulePump(w, nil)
		}
	}
	return true
}

// ingressBound is a lower bound on when a hop at `at` of the given stage
// next reaches ingress.
func ingressBound(stage int8, at netsim.Time) netsim.Time {
	switch stage {
	case loopEgress:
		return at.Add(loopEgressLatency - loopJitter + ingressLatency)
	case loopTransmit, loopTxDone:
		return at.Add(ingressLatency)
	}
	return at
}

// sync replays every modelled hop the unelided scheduler would have run
// before the running event: all hops strictly earlier than the clock, then
// those at the clock's picosecond that order ahead of the limit (stage, ord)
// — or ahead of the running event's stamps when the limit names no loop hop.
// Between runs everything up to the clock has run.
func (m *loopModel) sync(stage int8, ord uint64, through bool) {
	m.syncing = true
	sim := m.sw.sim
	m.now = sim.Now()
	m.limStage, m.limOrd, m.limThrough = stage, ord, through
	m.limSchedAt, m.limParent, m.inEvent = sim.Running()
	m.refresh()
	before := m.stats.ElidedPasses
	for {
		t0 := m.earliest()
		if t0 >= m.now {
			break
		}
		// One slice: no hop in [t0, lim) has a predecessor in it, except
		// a wire end behind its transmit — and transmit runs first.
		lim := min(t0.Add(loopSlice), m.now)
		m.runIngress(lim)
		m.runEgress(lim)
		m.runTransmit(lim)
		m.runTxDone(lim)
	}
	m.runTied()
	m.flush()
	if d := m.stats.ElidedPasses - before; d > m.stats.CatchupMaxPasses {
		m.stats.CatchupMaxPasses = d
	}
	m.syncing = false
}

// refresh re-asks the oracle about every template with modelled copies.
func (m *loopModel) refresh() {
	for k := range m.tmpl {
		if t := &m.tmpl[k]; t.count > 0 {
			t.until = m.oracle.IdleUntil(k)
		}
	}
}

// flush credits the elided passes to the counters they belong to.
func (m *loopModel) flush() {
	for k := range m.tmpl {
		if t := &m.tmpl[k]; t.passes > 0 {
			m.oracle.AccountIdle(k, t.passes)
			m.sw.Ingress.Packets += t.passes
			t.passes = 0
		}
	}
}

// earliest is the due time of the first pending hop of any stage.
func (m *loopModel) earliest() netsim.Time {
	t := netsim.MaxTime
	if m.ing.n > 0 {
		t = m.hops[m.ing.slot(0)].at
	}
	if m.egr.n > 0 {
		t = min(t, m.hops[m.egr.slot(0)].at)
	}
	if m.tx.n > 0 {
		t = min(t, m.hops[m.tx.slot(0)].at)
	}
	for _, pt := range m.sw.recirc {
		if pt.loopDone.n > 0 {
			t = min(t, m.hops[pt.loopDone.slot(0)].at)
		}
	}
	return t
}

// idlePass is Switch.ingress for a copy whose pass only recirculates.
func (m *loopModel) idlePass(h *loopHop, slot int32) {
	m.tmpl[h.tmpl].passes++
	m.stats.ElidedPasses++
	m.advance(h, tmLatency)
	m.ing.pop()
	m.egr.push(slot)
}

func (m *loopModel) runIngress(lim netsim.Time) {
	for m.ing.n > 0 {
		h, slot := m.head(&m.ing)
		if h.at >= lim {
			return
		}
		if t := &m.tmpl[h.tmpl]; h.at >= t.until {
			// Every such pass is a pump target no later than its own
			// picosecond; being past it means a mutation skipped WakeLoop.
			panic(fmt.Sprintf("asic: loop model of %s missed a wake: template %d pass at %v is not idle (until %v, now %v)",
				m.sw.Name, h.tmpl, h.at, t.until, m.now))
		}
		m.idlePass(h, slot)
	}
}

// egressHop is Switch.runEgress for a rid-0 template copy on a loopback
// port: a pipeline pass that edits nothing, then the calibrated loop delay.
// The transmit queue is the one place order is not arrival order: ±4 ns of
// jitter can swap neighbours, so the slot is inserted behind every entry not
// after it in (at, schedAt) — it carries the largest ord, so ties keep it
// last.
func (m *loopModel) egressHop(h *loopHop, slot int32) {
	sw := m.sw
	sw.Egress.Packets++
	m.advance(h, loopEgressLatency+sw.rngLoop.Jitter(loopJitter))
	m.egr.pop()
	r := &m.tx
	r.push(slot)
	mask := len(r.buf) - 1
	for i := r.n - 1; i > 0; i-- {
		p := &m.hops[r.buf[(r.head+i-1)&mask]]
		if p.at < h.at || (p.at == h.at && p.schedAt <= h.schedAt) {
			break
		}
		r.buf[(r.head+i)&mask], r.buf[(r.head+i-1)&mask] = r.buf[(r.head+i-1)&mask], slot
	}
}

func (m *loopModel) runEgress(lim netsim.Time) {
	for m.egr.n > 0 {
		h, slot := m.head(&m.egr)
		if h.at >= lim {
			return
		}
		m.egressHop(h, slot)
	}
}

// transmitHop is Port.transmit.
func (m *loopModel) transmitHop(h *loopHop, slot int32) {
	pt := h.port
	m.tx.pop()
	end, ok := pt.reserve(h.at, h.pkt.Len())
	if !ok {
		pt.TxDrops++
		m.release(h, slot).Release()
		return
	}
	m.advance(h, end.Sub(h.at))
	pt.loopDone.push(slot)
}

func (m *loopModel) runTransmit(lim netsim.Time) {
	for m.tx.n > 0 {
		h, slot := m.head(&m.tx)
		if h.at >= lim {
			return
		}
		m.transmitHop(h, slot)
	}
}

// txDoneHop is Port.txDone followed by the loopback Receive.
func (m *loopModel) txDoneHop(pt *Port) {
	h, slot := m.head(&pt.loopDone)
	pkt, n := h.pkt, uint64(h.pkt.Len())
	pt.TxPackets++
	pt.TxBytes += n
	pt.RxPackets++
	pt.RxBytes += n
	pkt.Meta.EgressPs = int64(h.at)
	pkt.Meta.IngressPs = int64(h.at)
	pkt.Meta.InPort = pt.ID
	m.advance(h, ingressLatency)
	pt.loopDone.pop()
	m.ing.push(slot)
}

// nextDone picks the port whose wire-end head runs first.
func (m *loopModel) nextDone() (*Port, *loopHop) {
	var best *Port
	var bh *loopHop
	for _, pt := range m.sw.recirc {
		if pt.loopDone.n == 0 {
			continue
		}
		h := &m.hops[pt.loopDone.slot(0)]
		if best == nil || h.at < bh.at || (h.at == bh.at &&
			(h.schedAt < bh.schedAt || (h.schedAt == bh.schedAt && h.ord < bh.ord))) {
			best, bh = pt, h
		}
	}
	return best, bh
}

func (m *loopModel) runTxDone(lim netsim.Time) {
	for {
		pt, h := m.nextDone()
		if pt == nil || h.at >= lim {
			return
		}
		m.txDoneHop(pt)
	}
}

// runTied handles the hops due at the clock's own picosecond: each stage in
// turn (their successors all lie later), each hop only if it orders ahead of
// the running event. An ingress hop that is not idle is executed here, for
// real, at exactly its time and slot.
func (m *loopModel) runTied() {
	for m.ing.n > 0 {
		h, slot := m.head(&m.ing)
		if h.at != m.now || !m.ahead(h, loopIngress) {
			break
		}
		if h.at < m.tmpl[h.tmpl].until {
			m.idlePass(h, slot)
			continue
		}
		m.flush()
		m.ing.pop()
		m.stats.LiveHops++
		m.sw.ingressPass(m.release(h, slot))
		m.refresh()
	}
	for m.egr.n > 0 {
		h, slot := m.head(&m.egr)
		if h.at != m.now || !m.ahead(h, loopEgress) {
			break
		}
		m.egressHop(h, slot)
	}
	for m.tx.n > 0 {
		h, slot := m.head(&m.tx)
		if h.at != m.now || !m.ahead(h, loopTransmit) {
			break
		}
		m.transmitHop(h, slot)
	}
	for {
		pt, h := m.nextDone()
		if pt == nil || h.at != m.now || !m.ahead(h, loopTxDone) {
			return
		}
		m.txDoneHop(pt)
	}
}

// ahead is the ordering rule for a modelled hop due at the clock's
// picosecond: does the unelided scheduler run it before the running event?
func (m *loopModel) ahead(h *loopHop, stage int8) bool {
	if !m.inEvent {
		return true // between runs everything due has run
	}
	if m.limThrough && stage == m.limStage && h.ord == m.limOrd {
		return true // the pump's own hop
	}
	if !m.pumping {
		m.stats.Ties++ // against an event that is not the model's own
	}
	if h.schedAt != m.limSchedAt {
		return h.schedAt < m.limSchedAt
	}
	if m.limOrd != 0 && stage == m.limStage {
		// Two hops of one stage: ord is the schedule order itself.
		return h.ord < m.limOrd
	}
	if h.parent != m.limParent {
		return h.parent < m.limParent
	}
	if !m.pumping {
		m.stats.ResidualTies++
	}
	return false
}

// arm schedules the pump for the first moment a modelled hop may need the
// scheduler: a template's idle deadline, or the ingress of the first copy
// that reaches it past that deadline. conservative (after a wake, when the
// oracle's next answer is not knowable yet) treats every template as due.
func (m *loopModel) arm(conservative bool) {
	if m.n == 0 {
		m.schedulePump(netsim.MaxTime, nil)
		return
	}
	now := m.sw.sim.Now()
	target, due := netsim.MaxTime, netsim.MaxTime
	for k := range m.tmpl {
		t := &m.tmpl[k]
		if t.count == 0 {
			continue
		}
		if conservative {
			t.until = 0
		} else {
			t.until = m.oracle.IdleUntil(k)
		}
		due = min(due, t.until)
		if t.until > now {
			target = min(target, t.until)
		}
	}
	if due > now.Add(loopHorizon) {
		// No pending hop reaches ingress that late: the deadline itself
		// (if any) is the next thing to wake for.
		m.schedulePump(target, nil)
		return
	}
	var hop *loopHop
	for i := 0; i < m.ing.n; i++ {
		h := &m.hops[m.ing.slot(i)]
		if h.at >= target {
			break
		}
		if h.at >= m.tmpl[h.tmpl].until {
			target, hop = h.at, h
			break
		}
	}
	if t := m.firstDue(&m.egr, loopEgress, target); t < target {
		target, hop = t, nil
	}
	if t := m.firstDue(&m.tx, loopTransmit, target); t < target {
		target, hop = t, nil
	}
	for _, pt := range m.sw.recirc {
		if t := m.firstDue(&pt.loopDone, loopTxDone, target); t < target {
			target, hop = t, nil
		}
	}
	m.schedulePump(target, hop)
}

// firstDue returns the ingress bound of the first hop in r whose next pass
// may lie past its template's deadline, if that is before limit.
func (m *loopModel) firstDue(r *hopRing, stage int8, limit netsim.Time) netsim.Time {
	for i := 0; i < r.n; i++ {
		h := &m.hops[r.slot(i)]
		b := ingressBound(stage, h.at)
		if b >= limit {
			break
		}
		if b >= m.tmpl[h.tmpl].until {
			return b
		}
	}
	return limit
}

// schedulePump (re)arms the pump at `at` (MaxTime: disarm). With hop set the
// pump is that ingress hop's own event, filed under the hop's stamps so it
// takes the hop's slot among the other events of that picosecond.
func (m *loopModel) schedulePump(at netsim.Time, hop *loopHop) {
	var ord uint64
	if hop != nil {
		ord = hop.ord
	}
	if m.pump != nil {
		if m.pumpAt == at && m.pumpOrd == ord {
			return
		}
		m.sw.sim.Cancel(m.pump)
		m.pump = nil
	}
	if at == netsim.MaxTime {
		return
	}
	m.pumpAt, m.pumpOrd = at, ord
	if hop != nil {
		// The handle is dropped when the event runs (runLoopPump) and
		// cancelled before any re-arm: never held past the event's life.
		m.pump = m.sw.sim.AtCallStamped(at, hop.schedAt, runLoopPump, m)
		return
	}
	m.pump = m.sw.sim.AtCall(at, runLoopPump, m)
}

// runLoopPump is the model's scheduler event.
func runLoopPump(a any) {
	m := a.(*loopModel)
	m.pump = nil
	if m.n == 0 {
		return
	}
	m.pumping = true
	if m.pumpOrd != 0 {
		m.sync(loopIngress, m.pumpOrd, true)
	} else {
		m.sync(loopNone, 0, false)
	}
	m.pumping = false
	m.arm(false)
}

// dissolve hands every modelled hop back to the scheduler under its original
// stamps — the event-per-hop path from here on (a trace was attached, or the
// oracle removed). Entries are filed stage by stage in queue order, so the
// schedule sequence among them is the one they would have had.
func (m *loopModel) dissolve() {
	m.schedulePump(netsim.MaxTime, nil)
	refile := func(r *hopRing, fn func(any)) {
		h, slot := m.head(r)
		j := m.sw.job(nil, h.port)
		j.ord = h.ord
		at, schedAt := h.at, h.schedAt
		j.pkt = m.release(h, slot)
		m.sw.sim.AtCallStamped(at, schedAt, fn, j)
		r.pop()
	}
	for m.ing.n > 0 {
		refile(&m.ing, runIngressJob)
	}
	for m.egr.n > 0 {
		refile(&m.egr, runEgressJob)
	}
	for m.tx.n > 0 {
		refile(&m.tx, runTransmitJob)
	}
	for pt, _ := m.nextDone(); pt != nil; pt, _ = m.nextDone() {
		refile(&pt.loopDone, runTxDoneJob)
	}
}
