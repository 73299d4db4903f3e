package experiments

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// traceSampleSrc is the observability workload: T1 saturates two 100G ports
// with 64B frames (multicast fan-out, timer fires on every loop pass); T2 is
// rate-controlled at 1 Mpps with a swept source port, so its loop passes
// mostly miss the replication timer (recirculate records) and every fired
// replica gets a header rewrite (dirty PHV → deparse records).
const traceSampleSrc = `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set(length, 64)
    .set(port, [0, 1])
T2 = trigger()
    .set([dip, sip, proto, dport], [9.9.9.8, 1.1.0.2, udp, 2])
    .set(sport, range(1024, 2047, 1))
    .set(length, 128)
    .set(interval, 1000ns)
    .set(port, 2)
`

// TraceSample runs the fixed observability workload — a line-rate multicast
// template plus a rate-controlled header-sweeping one across three 100G
// ports — with per-packet tracing enabled, and returns the populated trace
// set plus a metrics registry describing the run's end (switch counters and
// pools, per-sink traffic, scheduler wheel, and — with cfg.SimWorkers > 1 —
// the LP engine).
//
// The workload crosses every emission point the tracer has except digests
// (no queries), match tables (production pipelines use processor logic, not
// asic.Table) and drops (line-rate sinks): parse, SALU timer/accelerator
// accesses, multicast replication, recirculation, TM enqueue/dequeue,
// deparse, and wire tx/rx across LP boundaries. That makes it the trace
// oracle's differential workload (TestTraceDifferential) and the trace
// examples/perfetto writes.
func TraceSample(cfg Config) (*obs.TraceSet, *obs.Registry, error) {
	ts := obs.NewTraceSet()
	cfg.Trace = ts
	window := 80 * netsim.Microsecond
	if cfg.Quick {
		window = 40 * netsim.Microsecond
	}
	ports := []float64{100, 100, 100}
	sinks, ht, p, err := htGenerate(cfg, traceSampleSrc, ports, cfg.Seed,
		30*netsim.Microsecond, window, false)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	ht.Describe(reg)
	obs.DescribeSim(reg, "sim.tester", ht.Sim)
	if eng := p.Engine(); eng != nil {
		obs.DescribeEngine(reg, "engine", eng)
	}
	for i, s := range sinks {
		s.Describe(reg, fmt.Sprintf("sink%d", i))
	}
	return ts, reg, nil
}
