package asic

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/obs"
)

// Observability wiring for the switch. Trace emissions are placed only at
// engine-invariant instants — points that execute at the same virtual time
// and in the same per-device order under both the sequential and the
// parallel (LP) engines — so per-switch trace streams are bit-identical at
// any worker count (the determinism contract in package obs). Concretely:
//
//   - parse / table / SALU / TM / mcast / recirculate / deparse / digest /
//     drop records are emitted inside pipeline passes and TM hops, which the
//     LP engine schedules exactly as the sequential engine does;
//   - wire_tx is emitted at serialization end, an event both engines file
//     through Port.serialize (txDone locally, runTxCountJob on partitioned
//     links);
//   - no record is emitted from Port.Receive: the partitioned path performs
//     arrival bookkeeping at a different instant (see Port.DeliverDeferred),
//     so RX visibility comes from the parse record at pipeline entry, which
//     is engine-invariant.
//
// Every callsite passes only pre-materialized scalars and interned labels;
// with tracing disabled (nil trace) each reduces to a field load and one
// predictable branch — the htlint obsalloc analyzer and the zero-alloc
// tests hold that path at 0 allocs/op.

// Drop-reason labels (interned; trace callsites must not build strings).
const (
	dropPipeline = "pipeline"
	dropNoRoute  = "noroute"
	dropTx       = "txdrop"
)

// SetTrace attaches a trace stream to the switch (nil disables tracing).
// Call while the switch is idle — mid-flight packets would get a torn
// trace, not corrupted state.
//
// A traced switch runs every loop hop as a scheduled event: attaching a
// trace first hands whatever the idle-loop model holds back to the scheduler
// (loopmodel.go), so every record of the event-per-hop path is emitted.
func (sw *Switch) SetTrace(tr *obs.Trace) {
	if tr != nil && sw.loop != nil {
		sw.WakeLoop()
		sw.loop.dissolve()
	}
	sw.trace = tr
}

// Trace returns the attached trace stream (nil when disabled).
func (sw *Switch) Trace() *obs.Trace { return sw.trace }

// Describe records the switch's health under prefix: drop counters,
// digest-channel state, hot-path pool sizes, where the loop passes went, then
// every front-panel and recirculation port. It syncs the loop model once and
// then only reads, so a walk from inside an event is exact.
func (sw *Switch) Describe(r *obs.Registry, prefix string) {
	sw.SyncLoop()
	r.Num(prefix, "pipeline_drops", float64(sw.PipelineDrops))
	r.Num(prefix, "noroute_drops", float64(sw.NoRouteDrops))
	r.Num(prefix, "digests_sent", float64(sw.DigestsSent))
	r.Num(prefix, "digest_drops", float64(sw.DigestDrops))
	r.Num(prefix, "digest_queue", float64(sw.digestQueue.Len()))
	r.Num(prefix, "phv_pool", float64(len(sw.phvFree)))
	r.Num(prefix, "job_pool", float64(len(sw.jobFree)))
	// All zero without an idle oracle.
	loop := sw.LoopStats()
	r.Num(prefix, "loop.elided_passes", float64(loop.ElidedPasses))
	r.Num(prefix, "loop.wakes", float64(loop.Wakes))
	r.Num(prefix, "loop.catchup_max_passes", float64(loop.CatchupMaxPasses))
	r.Num(prefix, "loop.live_hops", float64(loop.LiveHops))
	r.Num(prefix, "loop.ties", float64(loop.Ties))
	r.Num(prefix, "loop.residual_ties", float64(loop.ResidualTies))
	for _, pt := range sw.ports {
		pt.Describe(r, obs.Join(prefix, fmt.Sprintf("port%d", pt.ID)))
	}
	for _, pt := range sw.recirc {
		pt.Describe(r, obs.Join(prefix, fmt.Sprintf("recirc%d", pt.ID-RecircPortBase)))
	}
}

// Describe records the port's counters under prefix. It only reads: a
// recirculation port's counters are the loop model's to keep, so reach it
// through Switch.Port or Switch.Describe, which sync the model first.
func (pt *Port) Describe(r *obs.Registry, prefix string) {
	r.Num(prefix, "tx_packets", float64(pt.TxPackets))
	r.Num(prefix, "tx_bytes", float64(pt.TxBytes))
	r.Num(prefix, "rx_packets", float64(pt.RxPackets))
	r.Num(prefix, "rx_bytes", float64(pt.RxBytes))
	r.Num(prefix, "tx_drops", float64(pt.TxDrops))
}
