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

// Describe registers the switch's health metrics on r under the switch
// name: per-port TX/RX counters, drop counters, digest-channel state and
// hot-path pool sizes. Gauges are read lazily at snapshot time; Describe
// itself is setup-time code and may allocate freely.
func (sw *Switch) Describe(r *obs.Registry) {
	if r == nil {
		return
	}
	prefix := sw.Name
	r.Gauge(prefix+".pipeline_drops", func() float64 { return float64(sw.PipelineDrops) })
	r.Gauge(prefix+".noroute_drops", func() float64 { return float64(sw.NoRouteDrops) })
	r.Gauge(prefix+".digests_sent", func() float64 { return float64(sw.DigestsSent) })
	r.Gauge(prefix+".digest_drops", func() float64 { return float64(sw.DigestDrops) })
	r.Gauge(prefix+".digest_queue", func() float64 { return float64(sw.digestQueue.Len()) })
	r.Gauge(prefix+".phv_pool", func() float64 { return float64(len(sw.phvFree)) })
	r.Gauge(prefix+".job_pool", func() float64 { return float64(len(sw.jobFree)) })
	// Where the loop passes went (all zero without an idle oracle).
	r.Gauge(prefix+".loop.elided_passes", func() float64 { return float64(sw.LoopStats().ElidedPasses) })
	r.Gauge(prefix+".loop.wakes", func() float64 { return float64(sw.LoopStats().Wakes) })
	r.Gauge(prefix+".loop.catchup_max_passes", func() float64 { return float64(sw.LoopStats().CatchupMaxPasses) })
	r.Gauge(prefix+".loop.live_hops", func() float64 { return float64(sw.LoopStats().LiveHops) })
	r.Gauge(prefix+".loop.ties", func() float64 { return float64(sw.LoopStats().Ties) })
	r.Gauge(prefix+".loop.residual_ties", func() float64 { return float64(sw.LoopStats().ResidualTies) })
	for _, pt := range sw.ports {
		pt.describe(r, fmt.Sprintf("%s.port%d", prefix, pt.ID))
	}
	for _, pt := range sw.recirc {
		pt.describe(r, fmt.Sprintf("%s.recirc%d", prefix, pt.ID-RecircPortBase))
	}
}

// describe registers one port's counters under prefix. Every read syncs the
// loop model first: a recirculation port's counters are the model's to keep.
func (pt *Port) describe(r *obs.Registry, prefix string) {
	gauge := func(name string, v *uint64) {
		r.Gauge(prefix+name, func() float64 {
			pt.sw.SyncLoop()
			return float64(*v)
		})
	}
	gauge(".tx_packets", &pt.TxPackets)
	gauge(".tx_bytes", &pt.TxBytes)
	gauge(".rx_packets", &pt.RxPackets)
	gauge(".rx_bytes", &pt.RxBytes)
	gauge(".tx_drops", &pt.TxDrops)
}
