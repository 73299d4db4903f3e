package htpr

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// QueryState is the runtime of one compiled query.
type QueryState struct {
	Plan *compiler.QueryPlan

	// Matches counts packets that passed the filter chain.
	Matches uint64
	// MatchedBytes sums their frame lengths (throughput reporting).
	MatchedBytes uint64

	// Table is the counter table for reduce/distinct queries; nil for
	// capture queries.
	Table *CounterTable

	// TriggerFIFO, when non-nil, receives trigger records for the
	// stateless-connection template this query drives (§5.3).
	TriggerFIFO *stateless.FIFO
	// RecordsPushed counts records handed to HTPS.
	RecordsPushed uint64

	// Push-mode eviction reporting: evictions awaiting a packet to carry
	// them, oldest first. The switch CPU folds what arrives into Table's
	// CPU-side store (MergeDigest).
	pending evictionFIFO

	// Per-packet scratch, overwritten by the next packet through this
	// query: the key tuple, its hash-input bytes (delay queries) and the
	// trigger record — all copied by whatever they are handed to.
	key  []uint64
	kbuf []byte
	rec  []uint64

	// Delay-measurement state (KindDelay): a hash-indexed timestamp
	// register written at egress and consumed at ingress.
	delayStore *asic.RegisterArray
	delayHash  *asic.HashUnit
	DelayCount uint64
	DelaySumNs float64
	DelayMinNs float64
	DelayMaxNs float64
}

// Registers lists every register array the query owns on the data plane:
// its counter table's, its trigger FIFO's and its delay-timestamp store.
//
//htlint:ignore deadexport inspection tap: the elision oracle compares query register cells
func (st *QueryState) Registers() []*asic.RegisterArray {
	var out []*asic.RegisterArray
	if st.Table != nil {
		out = append(out, st.Table.Registers()...)
	}
	if st.TriggerFIFO != nil {
		out = append(out, st.TriggerFIFO.Registers()...)
	}
	if st.delayStore != nil {
		out = append(out, st.delayStore)
	}
	return out
}

// PendingDigests reports evictions queued for the digest channel.
//
//htlint:ignore deadexport inspection tap: the elision oracle compares the digests waiting for room
func (st *QueryState) PendingDigests() int { return st.pending.len() }

// eviction is one evicted entry: its key aliases a never-rewritten row of the
// table's key matrix (DESIGN.md §5), so queueing it copies nothing.
type eviction struct {
	key   []uint64
	value uint64
}

// evictionFIFO queues evictions with slot reuse: popping advances a head
// index instead of reslicing, so the backing array is reused once drained
// rather than pinned by a [1:] chain.
type evictionFIFO struct {
	q    []eviction
	head int
}

func (f *evictionFIFO) len() int { return len(f.q) - f.head }

func (f *evictionFIFO) push(e eviction) { f.q = append(f.q, e) }

func (f *evictionFIFO) pop() eviction {
	e := f.q[f.head]
	f.q[f.head] = eviction{}
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return e
}

// digestChannelRoom gates push-mode digest attachment on channel
// backpressure (a learn filter's pipeline-visible signal): a pending message
// rides a packet only while fewer than this many wait on the switch's digest
// channel; otherwise it waits on the data plane, or the CPU drains it at
// collection time.
const digestChannelRoom = 4096

// Receiver deploys compiled queries onto a switch's pipelines: ingress for
// received traffic, egress for sent traffic (§5.2's component layout).
type Receiver struct {
	prog   *compiler.Program
	states []*QueryState

	// sw is the switch the receiver is built for: its digest channel
	// carries the evictions, and its idle-loop model is woken (WakeLoop)
	// before any mutation that gives a template pass work to do and synced
	// (SyncLoop) before register statistics are read out.
	sw *asic.Switch

	// msg is the digest message attachDigest encodes an eviction into. The
	// switch copies it onto its digest channel before the pass ends, so one
	// buffer serves every attachment.
	msg []byte

	// evKey is the decoded key of the digest message being merged.
	evKey []uint64
}

// NewReceiver builds runtime state for every query in the program,
// including the trigger FIFOs for stateless connections, bound to sw:
// counter-table evictions become push-mode digest messages (§5.2) that ride
// outgoing packets onto sw's digest channel while it has room, and sw's
// idle-loop model is woken before a KV or trigger FIFO stops being empty and
// before an eviction is queued. The switch CPU's side is MergeDigest.
func NewReceiver(prog *compiler.Program, sw *asic.Switch) *Receiver {
	r := &Receiver{prog: prog, sw: sw}
	for _, plan := range prog.Queries {
		st := &QueryState{
			Plan: plan,
			key:  make([]uint64, len(plan.Keys)),
			rec:  make([]uint64, len(plan.RecordFields)),
		}
		if plan.Kind == ntapi.KindReduce || plan.Kind == ntapi.KindDistinct {
			st.Table = NewCounterTable(plan)
			st.Table.kvFIFO.OnFill(sw.WakeLoop)
			st.Table.OnEvict = func(key []uint64, value uint64) {
				sw.WakeLoop() // a queued eviction is work for the next template pass
				st.pending.push(eviction{key, value})
			}
		}
		if plan.Kind == ntapi.KindDelay {
			st.delayStore = asic.NewRegisterArray("delay-ts", plan.ArraySize)
			st.delayHash = asic.NewHashUnit("delay-key", plan.PolyArray1)
		}
		if plan.TriggerTemplateID != 0 {
			st.TriggerFIFO = stateless.New(
				fmt.Sprintf("trigger-fifo-q%d", plan.ID), plan.RecordFields, 4096)
			st.TriggerFIFO.OnFill(sw.WakeLoop)
		}
		r.states = append(r.states, st)
	}
	return r
}

// digestRoom reports whether the digest channel admits another message.
func (r *Receiver) digestRoom() bool { return r.sw.DigestQueueLen() < digestChannelRoom }

// TemplatePassIdle reports whether a template packet's pass through the
// ingress processor does nothing: every counter table's KV FIFO is empty and
// no queued eviction would be attached (none pending, or the channel has no
// room). It reads only state whose every mutation calls sw.WakeLoop first.
func (r *Receiver) TemplatePassIdle() bool {
	pending := false
	for _, st := range r.states {
		if st.Table != nil && !st.Table.kvFIFO.Empty() {
			return false
		}
		if st.pending.len() > 0 {
			pending = true
		}
	}
	return !pending || !r.digestRoom()
}

// AccountIdlePasses credits n template passes that found TemplatePassIdle
// with the SALU accesses of their empty KV-FIFO pops.
func (r *Receiver) AccountIdlePasses(n uint64) {
	for _, st := range r.states {
		if st.Table != nil {
			st.Table.kvFIFO.AccountEmptyPops(n)
		}
	}
}

// State returns the runtime state of a query by 1-based ID, or nil.
func (r *Receiver) State(queryID int) *QueryState {
	r.sw.SyncLoop()
	for _, st := range r.states {
		if st.Plan.ID == queryID {
			return st
		}
	}
	return nil
}

// States returns all query states.
func (r *Receiver) States() []*QueryState {
	r.sw.SyncLoop()
	return r.states
}

// Observe binds every query's SALU register arrays (counter-table slots,
// delay-timestamp store) to a trace stream, emitting one salu record per
// access.
func (r *Receiver) Observe(clock *netsim.Sim, tr *obs.Trace) {
	for _, st := range r.states {
		if st.Table != nil {
			st.Table.Observe(clock, tr)
		}
		if st.delayStore != nil {
			st.delayStore.Observe(clock, tr)
		}
	}
}

// MergeDigest is the switch-CPU side of push-mode reporting: it decodes one
// digest message and folds the eviction it carries into that query's CPU
// aggregate; anything else on the channel is ignored. msg is not retained.
func (r *Receiver) MergeDigest(msg []byte) {
	qid, key, v, err := DecodeEvictionInto(r.evKey[:0], msg)
	if err != nil {
		return
	}
	r.evKey = key
	if st := r.State(qid); st != nil && st.Table != nil {
		st.Table.MergeEvicted(key, v)
	}
}

// attachDigest encodes the oldest pending eviction into the current packet's
// digest slot (one generate_digest per packet traversal), honouring channel
// backpressure.
func (r *Receiver) attachDigest(p *asic.PHV) {
	if p.DigestData != nil {
		return
	}
	if !r.digestRoom() {
		return
	}
	for _, st := range r.states {
		if st.pending.len() > 0 {
			ev := st.pending.pop()
			r.msg = AppendEviction(r.msg[:0], st.Plan.ID, ev.key, ev.value)
			p.DigestData = r.msg
			return
		}
	}
}

// TriggerFIFO returns the record FIFO a query feeds, or nil.
func (r *Receiver) TriggerFIFO(queryID int) *stateless.FIFO {
	if st := r.State(queryID); st != nil {
		return st.TriggerFIFO
	}
	return nil
}

// IngressProcessor handles received traffic: every non-template packet runs
// through the ingress-deployed queries; every template packet instead pops
// one KV-FIFO entry per counter table (the recirculated-packet drain of
// Figure 5).
func (r *Receiver) IngressProcessor() asic.Processor {
	return asic.ProcessorFunc(func(p *asic.PHV) {
		if p.Meta.TemplateID != 0 {
			for _, st := range r.states {
				if st.Table != nil {
					st.Table.DrainOne()
				}
			}
			r.attachDigest(p)
			return
		}
		for _, st := range r.states {
			if st.Plan.Egress {
				continue
			}
			if st.Plan.Port >= 0 && st.Plan.Port != p.Meta.InPort {
				continue
			}
			if st.Plan.Kind == ntapi.KindDelay {
				if filtersPass(st, p) {
					st.recordDelay(p)
				}
				continue
			}
			r.process(st, p)
		}
		r.attachDigest(p)
	})
}

// EgressProcessor handles sent traffic: queries bound to a template observe
// its replicas after the editor has rewritten them, and delay queries store
// the sent-side timestamp for each outgoing test packet.
func (r *Receiver) EgressProcessor() asic.Processor {
	return asic.ProcessorFunc(func(p *asic.PHV) {
		if p.Meta.TemplateID == 0 || p.Meta.ReplicaID == 0 {
			return
		}
		for _, st := range r.states {
			if st.Plan.Kind == ntapi.KindDelay {
				if filtersPass(st, p) {
					idx := st.delayIndex(p)
					st.delayStore.Write(idx, uint64(r.nowPs(p)))
				}
				continue
			}
			if !st.Plan.Egress || st.Plan.SentTemplateID != p.Meta.TemplateID {
				continue
			}
			r.process(st, p)
		}
	})
}

// nowPs reads the pipeline timestamp a stage sees for this packet: the
// MAC-assigned ingress timestamp (ns) scaled to the simulation clock. It is
// the SW-timestamp accuracy class of Fig. 18.
func (r *Receiver) nowPs(p *asic.PHV) int64 { return p.Meta.IngressPs }

func filtersPass(st *QueryState, p *asic.PHV) bool {
	for _, f := range st.Plan.Filters {
		if !f.Eval(p) {
			return false
		}
	}
	return true
}

// delayIndex hashes the query's key fields into the timestamp register.
func (st *QueryState) delayIndex(p *asic.PHV) int {
	st.kbuf = compiler.AppendKey(st.kbuf[:0], st.keyOf(p))
	return st.delayHash.Index(st.kbuf, st.Plan.ArraySize)
}

// keyOf reads the query's key fields into the per-query scratch tuple.
func (st *QueryState) keyOf(p *asic.PHV) []uint64 {
	for i, kf := range st.Plan.Keys {
		st.key[i] = kf.Get(p)
	}
	return st.key
}

// recordDelay consumes a stored sent-side timestamp and accumulates the
// delay sample.
func (st *QueryState) recordDelay(p *asic.PHV) {
	idx := st.delayIndex(p)
	sent := st.delayStore.RMW(idx, func(old uint64) (uint64, uint64) { return 0, old })
	if sent == 0 {
		return
	}
	st.Matches++
	d := float64(p.Meta.IngressPs-int64(sent)) / 1e3 // ps -> ns
	if d < 0 {
		return
	}
	st.DelayCount++
	st.DelaySumNs += d
	if st.DelayCount == 1 || d < st.DelayMinNs {
		st.DelayMinNs = d
	}
	if d > st.DelayMaxNs {
		st.DelayMaxNs = d
	}
}

// process runs one packet through one query.
func (r *Receiver) process(st *QueryState, p *asic.PHV) {
	for _, f := range st.Plan.Filters {
		if !f.Eval(p) {
			return
		}
	}
	st.Matches++
	st.MatchedBytes += uint64(p.FrameLen)

	if st.Table != nil {
		delta := uint64(1)
		if st.Plan.ValueField != asic.FieldNone {
			delta = st.Plan.ValueField.Get(p)
		}
		agg := st.Table.Update(st.keyOf(p), delta)
		for _, pred := range st.Plan.Post {
			if !pred.Eval(agg) {
				return
			}
		}
	}
	if st.TriggerFIFO != nil {
		for i, f := range st.Plan.RecordFields {
			st.rec[i] = f.Get(p)
		}
		if st.TriggerFIFO.Push(st.rec) {
			st.RecordsPushed++
		}
	}
}

// Report is the collected outcome of one query.
type Report struct {
	Query   string
	Kind    ntapi.QueryKind
	Matches uint64
	Bytes   uint64
	// Results holds per-key aggregates for reduce, per-key presence for
	// distinct; nil for capture queries.
	Results []Result
	// Distinct is the distinct-key count (distinct queries).
	Distinct int
	// Delay statistics (delay queries), in nanoseconds.
	DelaySamples uint64
	DelayMeanNs  float64
	DelayMinNs   float64
	DelayMaxNs   float64
}

// Collect assembles reports for every query.
func (r *Receiver) Collect() []Report {
	var out []Report
	for _, st := range r.states {
		rep := Report{
			Query:   st.Plan.Query.Name,
			Kind:    st.Plan.Kind,
			Matches: st.Matches,
			Bytes:   st.MatchedBytes,
		}
		if st.Table != nil {
			// At collection time the CPU empties the KV FIFO and reads
			// out any evictions still queued on the data plane, so the
			// table's CPU-side store holds everything ever evicted.
			st.Table.DrainAll()
			for st.pending.len() > 0 {
				ev := st.pending.pop()
				st.Table.MergeEvicted(ev.key, ev.value)
			}
			rep.Results = st.Table.results()
			rep.Distinct = len(rep.Results)
		}
		if st.Plan.Kind == ntapi.KindDelay && st.DelayCount > 0 {
			rep.DelaySamples = st.DelayCount
			rep.DelayMeanNs = st.DelaySumNs / float64(st.DelayCount)
			rep.DelayMinNs = st.DelayMinNs
			rep.DelayMaxNs = st.DelayMaxNs
		}
		out = append(out, rep)
	}
	return out
}
