// Package asic simulates a Tofino-class RMT switching ASIC: a programmable
// parser, match-action pipelines with stateful registers and SALUs, a traffic
// manager with a multicast engine and per-port serialization, recirculation
// ports, MAC timestamping, and a digest engine towards the switch CPU.
//
// The simulator is calibrated against the micro-benchmarks HyperTester
// reports for its Tofino testbed (§7.3); see the constants in this file.
// It enforces the architectural restrictions the paper designs around: the
// pipeline cannot create packets, cannot touch payload bytes, and stateful
// memory is only reachable through per-packet register operations.
package asic

import "github.com/hypertester/hypertester/internal/netproto"

// Latency calibration. The paper measures a 570 ns recirculation round trip
// for 64-byte template packets (Fig. 14a) with an RMSE under 5 ns, and a
// minimum template inter-arrival of 6.4 ns at the 100 Gbps recirculation
// port (§5.1). The fixed components below sum to 563.6 ns so that
// 563.6 + wire(64B @100G) = 570 ns.
const (
	// IngressLatencyNs covers MAC receive, parsing and the ingress
	// match-action stages.
	IngressLatencyNs = 170
	// TMLatencyNs covers queueing-system traversal without replication.
	TMLatencyNs = 120
	// EgressLatencyNs covers the egress match-action stages and deparser.
	EgressLatencyNs = 180
	// MACTxLatencyNs covers MAC transmit logic before serialization.
	MACTxLatencyNs = 94 // 563.6 total with the 0.4 fractional part below

	// pipeFixedSubNs is the fractional remainder distributed into the
	// fixed path so the 64-byte loop lands exactly on 570 ns.
	pipeFixedSubNs = 0.4
)

// PipelineFixedNs is the size-independent portion of a full
// ingress→TM→egress→MAC traversal.
const PipelineFixedNs = IngressLatencyNs + TMLatencyNs + EgressLatencyNs + MACTxLatencyNs - pipeFixedSubNs

// LoopRTTNs returns the calibrated recirculation round-trip time for a frame
// of the given size: fixed pipeline latency plus serialization on the
// 100 Gbps recirculation path.
func LoopRTTNs(frameLen int) float64 {
	return PipelineFixedNs + netproto.WireTimeNs(frameLen, RecircGbps)
}

// RecircGbps is the recirculation-path bandwidth the paper measures
// ("no less than 100Gbps", §5.1).
const RecircGbps = 100.0

// McastDelayNs returns the replication-engine delay for one multicast copy.
// Fig. 15a: ~389 ns for 64-byte packets, rising ~65 ns by 1280 bytes, with
// jitter (RMSE) under 4.5 ns. Port count and speed have a near-zero effect
// (Fig. 15b), so neither appears here.
func McastDelayNs(frameLen int) float64 {
	return 385.6 + 0.0534*float64(frameLen)
}

// McastJitterSpreadNs bounds the uniform jitter applied to replication
// delay; calibrated so the observed RMSE stays below the paper's 4.5 ns.
const McastJitterSpreadNs = 7

// RTTJitterSpreadNs bounds the uniform jitter on the recirculation loop;
// calibrated so the RTT RMSE stays below the paper's 5 ns (Fig. 14a).
const RTTJitterSpreadNs = 8

// AcceleratorCapacity returns how many template packets of the given size
// one recirculation path can keep in flight: loop RTT divided by the minimum
// inter-arrival time (§7.3, 89 packets at 64 bytes).
func AcceleratorCapacity(frameLen int) int {
	return int(LoopRTTNs(frameLen) / netproto.WireTimeNs(frameLen, RecircGbps))
}
