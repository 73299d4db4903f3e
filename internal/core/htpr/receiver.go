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

	// Push-mode eviction reporting (enabled by EnableDigestEvictions):
	// encoded digest messages awaiting a packet to carry them. The switch
	// CPU folds what arrives into Table's CPU-side store (MergeDigest).
	pendingDigests digestFIFO

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
func (st *QueryState) PendingDigests() int { return st.pendingDigests.len() }

// digestFIFO queues encoded eviction messages with slot reuse: popping
// advances a head index instead of reslicing, so the backing array is
// reclaimed (and reused) once drained rather than pinned by a [1:] chain.
type digestFIFO struct {
	q    [][]byte
	head int
}

func (f *digestFIFO) len() int { return len(f.q) - f.head }

func (f *digestFIFO) push(m []byte) { f.q = append(f.q, m) }

func (f *digestFIFO) pop() []byte {
	m := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return m
}

// Receiver deploys compiled queries onto a switch's pipelines: ingress for
// received traffic, egress for sent traffic (§5.2's component layout).
type Receiver struct {
	prog   *compiler.Program
	states []*QueryState

	// DigestRoom, when set, gates push-mode digest attachment on channel
	// backpressure (a learn filter's pipeline-visible signal): pending
	// messages wait on the data plane until the channel has room, or the
	// CPU drains them at collection time.
	DigestRoom func() bool

	// digestFree recycles encoded-eviction buffers: a message returns here
	// once consumed (copied by the ASIC digest channel, or decoded at
	// collection time) and its storage is reused by the next eviction,
	// making sustained eviction reporting allocation-free. digestSlab is
	// the block new buffers are cut from when none is free.
	digestFree [][]byte
	digestSlab []byte
	// recycleFn is recycleDigestBuf bound once at construction, installed
	// as PHV.DigestFree on every attachment so the ASIC hands the buffer
	// back at the moment it is provably consumed (copied onto the digest
	// channel, or the PHV released unconsumed) — a per-packet method-value
	// allocation would break the zero-alloc digest path.
	recycleFn func([]byte)

	// evKey is the decoded key of the digest message being merged.
	evKey []uint64

	// wake and sync are the switch's loop-model hooks (SetLoopHooks): wake
	// runs before any mutation that gives a template pass work to do, sync
	// before register statistics are read out.
	wake, sync func()
}

// digestSlabBytes is how much buffer storage one allocation buys: messages
// pile up by the thousand while the rate-limited channel is busy, and a
// buffer each would make that pile the run's largest source of garbage.
const digestSlabBytes = 4096

// newEviction encodes an eviction into a recycled buffer when one is free,
// else into a message-sized cut of the slab.
func (r *Receiver) newEviction(queryID int, key []uint64, value uint64) []byte {
	var buf []byte
	if n := len(r.digestFree); n > 0 {
		buf = r.digestFree[n-1][:0]
		r.digestFree[n-1] = nil
		r.digestFree = r.digestFree[:n-1]
	} else {
		size := evictionLen(len(key))
		if len(r.digestSlab) < size {
			r.digestSlab = make([]byte, max(size, digestSlabBytes))
		}
		buf, r.digestSlab = r.digestSlab[:0:size], r.digestSlab[size:]
	}
	return AppendEviction(buf, queryID, key, value)
}

// recycleDigestBuf returns a consumed message buffer to the freelist.
func (r *Receiver) recycleDigestBuf(b []byte) {
	if b != nil {
		r.digestFree = append(r.digestFree, b)
	}
}

// NewReceiver builds runtime state for every query in the program,
// including the trigger FIFOs for stateless connections.
func NewReceiver(prog *compiler.Program) *Receiver {
	r := &Receiver{prog: prog}
	r.recycleFn = r.recycleDigestBuf
	for _, plan := range prog.Queries {
		st := &QueryState{
			Plan: plan,
			key:  make([]uint64, len(plan.Keys)),
			rec:  make([]uint64, len(plan.RecordFields)),
		}
		if plan.Kind == ntapi.KindReduce || plan.Kind == ntapi.KindDistinct {
			st.Table = NewCounterTable(plan)
		}
		if plan.Kind == ntapi.KindDelay {
			st.delayStore = asic.NewRegisterArray("delay-ts", plan.ArraySize)
			st.delayHash = asic.NewHashUnit("delay-key", plan.PolyArray1)
		}
		if plan.TriggerTemplateID != 0 {
			st.TriggerFIFO = stateless.New(
				fmt.Sprintf("trigger-fifo-q%d", plan.ID), plan.RecordFields, 4096)
		}
		r.states = append(r.states, st)
	}
	return r
}

// SetLoopHooks connects the receiver to the switch's idle-loop model. wake
// (asic.Switch.WakeLoop) is called before a KV or trigger FIFO stops being
// empty and before an eviction is queued for the digest channel; sync
// (asic.Switch.SyncLoop) before State/States hand out counters the model may
// still owe passes to.
func (r *Receiver) SetLoopHooks(wake, sync func()) {
	r.wake, r.sync = wake, sync
	for _, st := range r.states {
		if st.Table != nil {
			st.Table.kvFIFO.OnFill(wake)
		}
		if st.TriggerFIFO != nil {
			st.TriggerFIFO.OnFill(wake)
		}
	}
}

// TemplatePassIdle reports whether a template packet's pass through the
// ingress processor does nothing: every counter table's KV FIFO is empty and
// no queued eviction would be attached (none pending, or the channel has no
// room). It reads only state whose every mutation calls the wake hook first.
func (r *Receiver) TemplatePassIdle() bool {
	pending := false
	for _, st := range r.states {
		if st.Table != nil && !st.Table.kvFIFO.Empty() {
			return false
		}
		if st.pendingDigests.len() > 0 {
			pending = true
		}
	}
	return !pending || (r.DigestRoom != nil && !r.DigestRoom())
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
	if r.sync != nil {
		r.sync()
	}
	for _, st := range r.states {
		if st.Plan.ID == queryID {
			return st
		}
	}
	return nil
}

// States returns all query states.
func (r *Receiver) States() []*QueryState {
	if r.sync != nil {
		r.sync()
	}
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

// EnableDigestEvictions switches counter-table eviction reporting onto the
// push-mode digest path (§5.2): evictions become generate_digest messages
// that ride outgoing packets to the switch CPU, which decodes and merges
// them (the facade wires the CPU side to MergeDigest).
func (r *Receiver) EnableDigestEvictions() {
	for _, st := range r.states {
		if st.Table == nil {
			continue
		}
		st := st
		st.Table.OnEvict = func(key []uint64, value uint64) {
			if r.wake != nil {
				r.wake() // a queued eviction is work for the next template pass
			}
			st.pendingDigests.push(r.newEviction(st.Plan.ID, key, value))
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

// attachDigest hands one pending eviction message to the current packet's
// digest slot (one generate_digest per packet traversal), honouring channel
// backpressure.
func (r *Receiver) attachDigest(p *asic.PHV) {
	if p.DigestData != nil {
		return
	}
	if r.DigestRoom != nil && !r.DigestRoom() {
		return
	}
	for _, st := range r.states {
		if st.pendingDigests.len() > 0 {
			// The buffer comes back through DigestFree when the ASIC has
			// copied it onto the channel (or dropped the PHV unconsumed).
			p.DigestData = st.pendingDigests.pop()
			p.DigestFree = r.recycleFn
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
			// out any digests still queued on the data plane, so the
			// table's CPU-side store holds everything ever evicted.
			st.Table.DrainAll()
			for st.pendingDigests.len() > 0 {
				msg := st.pendingDigests.pop()
				r.MergeDigest(msg)
				r.recycleDigestBuf(msg)
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
