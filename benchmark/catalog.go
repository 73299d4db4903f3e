package main

import (
	"bytes"
	"encoding/json"
)

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

// runSeconds is how long one run measures under the default -seconds.
const runSeconds = 15

var workloadDefs = []workloadDef{
	{"linerate64", "4x100G 64B multicast line rate on the sequential engine: per-packet asic+netsim cost only; bypasses queries, digests, compiler, LP engine"},
	{"linerate64-par", "the same packets on the 2-worker LP engine, on one OS thread: isolates epochs, cross-LP messages, lookahead from host wake-up latency; linerate64 is bypass and bit-identity reference"},
	{"webscale", "stateless web task (sec 5.4) against a server farm: few packets, work is idle template recirculation, trigger FIFOs and farm state"},
	{"delayquery", "200ns probes to a reflector with keyed max over 65536 keys, Reports() included: per-packet SALU/counter-table/digest state and collection"},
	{"compile", "parse+compile+print of the 18-program corpus, no packet simulated: moves only with ntapi/compiler/verify/p4ir; bypass for data-plane changes"},
}

// endToEnd lists the gated metrics, the same on every workload. Every bound
// is the widest the harness allows: on the shared 2-vCPU reference box the
// same binary's medians drift by 5-20 % from one hour to the next. They are
// what a user of the simulator pays: host seconds and memory to get a fixed
// amount of simulated work. Three more end-to-end values are printed but
// cannot be gated by a share of their median, so they are not in this list:
// fail_ratio (must be 0; reported as attempted/failed), sim_fingerprint
// (text; must repeat exactly) and allocs_per_kwork (~0 on linerate64; listed
// with the per-layer metrics).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"peak_mem_mb", "MB", "lower", 0.25},
}

// layerMetrics are printed by every workload's traced run. A metric of a
// layer the workload bypasses reads 0 there (engine.* off the LP engine,
// netsim.*/asic.* on compile).
var layerMetrics = []metricDef{
	{"allocs_per_kwork", "1/kwork", "lower", 0},

	{"ntapi.parse_ms", "ms", "lower", 0},
	{"compiler.compile_ms", "ms", "lower", 0},
	{"verify.analyze_ms", "ms", "lower", 0},
	{"hypertester.deploy_ms", "ms", "lower", 0},
	{"testbed.wire_ms", "ms", "lower", 0},
	{"run.warmup_ms", "ms", "lower", 0},
	{"run.window_ms", "ms", "lower", 0},
	{"run.slice_p50_ms", "ms", "lower", 0},
	{"run.slice_p90_ms", "ms", "lower", 0},
	{"htpr.collect_ms", "ms", "lower", 0},

	{"netsim.events", "count", "lower", 0},
	{"netsim.events_per_pkt", "1/pkt", "lower", 0},
	{"netsim.ns_per_event", "ns", "lower", 0},
	{"netsim.pending_end", "count", "lower", 0},
	{"netsim.wheel_buckets_end", "count", "lower", 0},
	{"netsim.overflow_end", "count", "lower", 0},

	{"engine.epochs", "count", "lower", 0},
	{"engine.events_per_epoch", "count", "higher", 0},
	{"engine.xlp_msgs", "count", "lower", 0},
	{"engine.stalls", "count", "lower", 0},
	{"engine.stall_ratio", "ratio", "lower", 0},
	{"engine.tester_lp_share", "ratio", "lower", 0},
	{"engine.multicore_wall_ratio", "ratio", "lower", 0},

	{"asic.parse_per_pkt", "1/pkt", "lower", 0},
	{"asic.table_hit_per_pkt", "1/pkt", "lower", 0},
	{"asic.table_miss_per_pkt", "1/pkt", "lower", 0},
	{"asic.salu_per_pkt", "1/pkt", "lower", 0},
	{"asic.tm_enq_per_pkt", "1/pkt", "lower", 0},
	{"asic.mcast_copy_per_pkt", "1/pkt", "lower", 0},
	{"asic.recirc_per_pkt", "1/pkt", "lower", 0},
	{"asic.deparse_per_pkt", "1/pkt", "lower", 0},
	{"asic.digest_per_pkt", "1/pkt", "lower", 0},
	{"asic.drop_per_pkt", "1/pkt", "lower", 0},
	{"asic.tx_drops", "count", "lower", 0},
	{"asic.digests_sent", "count", "lower", 0},
	{"asic.digest_drops", "count", "lower", 0},
	{"asic.phv_pool", "count", "lower", 0},

	{"htps.fired", "count", "higher", 0},
	{"htps.useful_pass_ratio", "ratio", "higher", 0},
	{"htpr.matches", "count", "higher", 0},
	{"htpr.distinct", "count", "higher", 0},
	{"htpr.evictions", "count", "lower", 0},
	{"switchcpu.digest_bytes", "B", "lower", 0},
	{"testbed.dut_rx_pkts", "count", "higher", 0},
	{"testbed.dut_tx_pkts", "count", "higher", 0},

	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.heap_alloc_mb", "MB", "lower", 0},
	{"obs.records", "count", "lower", 0},
	{"obs.trace_overhead", "ratio", "lower", 0},
	{"bench.span_overhead", "ratio", "lower", 0},
}

// kernelMetrics are printed by the kernels pass: each layer's exported
// functions timed alone.
var kernelMetrics = []metricDef{
	{"netproto.decode_ns", "ns", "lower", 0},
	{"netproto.decode_v6ext_ns", "ns", "lower", 0},
	{"netproto.build_udp_ns", "ns", "lower", 0},

	{"netsim.sched_fire_ns", "ns", "lower", 0},
	{"netsim.sched_far_ns", "ns", "lower", 0},
	{"netsim.cancel_ns", "ns", "lower", 0},
	{"netsim.engine_epoch_ns", "ns", "lower", 0},
	{"netsim.engine_xlp_ns", "ns", "lower", 0},

	{"asic.exact_apply_ns", "ns", "lower", 0},
	{"asic.ternary_apply_ns", "ns", "lower", 0},
	{"asic.range_apply_ns", "ns", "lower", 0},
	{"asic.ingress_ns", "ns", "lower", 0},
	{"asic.mcast_copy_ns", "ns", "lower", 0},
	{"asic.digest_ns", "ns", "lower", 0},
	{"asic.ingress_allocs", "1/op", "lower", 0},
	{"asic.mcast_allocs", "1/op", "lower", 0},
	{"asic.digest_allocs", "1/op", "lower", 0},

	{"ntapi.parse_us", "us", "lower", 0},
	{"ntapi.format_us", "us", "lower", 0},

	{"compiler.compile_us.table5_delay", "us", "lower", 0},
	{"compiler.compile_us.table5_ipscan", "us", "lower", 0},
	{"compiler.compile_us.case_webscale", "us", "lower", 0},
	{"compiler.compile_us.table7_06", "us", "lower", 0},
	{"compiler.compile_us.fig10_throughput_4port", "us", "lower", 0},
	{"compiler.compile_us.geomean", "us", "lower", 0},
	{"compiler.exactkeys_ms", "ms", "lower", 0},
	{"compiler.p4_tables", "count", "lower", 0},
	{"compiler.p4_loc", "count", "lower", 0},

	{"verify.analyze_us.geomean", "us", "lower", 0},
	{"verify.paths", "count", "lower", 0},
	{"verify.replay_us", "us", "lower", 0},

	{"htpr.counter_update_ns", "ns", "lower", 0},
	{"htpr.counter_collect_ms", "ms", "lower", 0},
	{"htpr.eviction_codec_ns", "ns", "lower", 0},
	{"stateless.fifo_pushpop_ns", "ns", "lower", 0},

	{"scenario.load_us", "us", "lower", 0},
	{"scenario.starter_run_ms", "ms", "lower", 0},

	{"obs.emit_ns", "ns", "lower", 0},
	{"obs.canonical_ms_per_mrec", "ms", "lower", 0},

	{"experiments.quick_suite_s", "s", "lower", 0},
	{"experiments.fig17_s", "s", "lower", 0},
	{"experiments.casestudy_s", "s", "lower", 0},
	{"experiments.ablation_a_allocs", "count", "lower", 0},
}

// describe renders BENCHMARK.json from the tables above, so the file and
// the code cannot drift (the smoke test diffs them).
func describe() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range append(append([]metricDef(nil), layerMetrics...), kernelMetrics...) {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return buf.Bytes()
}
