// Package costmodel computes the equipment/power economics of §7.4
// (Table 6) and the SYN-flood agent estimation of §7.5 (Table 8), from the
// constants the paper states: a programmable switch costs ~$3600 and 150 W
// per Tbps [30]; an 8-core server costs ~$3500 and 750 W under full load
// and generates 80 Gbps with MoonGen (Fig. 10b).
package costmodel

// Platform describes one tester platform's economics.
type Platform struct {
	Name string
	// EquipmentUSD and PowerWatts are per deployable unit.
	EquipmentUSD float64
	PowerWatts   float64
	// ThroughputTbps is what one unit generates.
	ThroughputTbps float64
}

// Paper constants.
var (
	// MoonGenServer is one 8-core commodity server running MoonGen.
	MoonGenServer = Platform{
		Name:           "MoonGen (8-core server)",
		EquipmentUSD:   3500,
		PowerWatts:     750,
		ThroughputTbps: 0.080,
	}
	// HyperTesterSwitch is one programmable switch, normalized per Tbps
	// ($3600, 150 W per Tbps per [30]).
	HyperTesterSwitch = Platform{
		Name:           "HyperTester (programmable switch)",
		EquipmentUSD:   3600,
		PowerWatts:     150,
		ThroughputTbps: 1.0,
	}
)

// PerTbps is a platform's cost normalized by throughput (Table 6's rows).
type PerTbps struct {
	EquipmentUSD float64
	PowerWatts   float64
}

// Normalize returns cost per Tbps.
func (p Platform) Normalize() PerTbps {
	return PerTbps{
		EquipmentUSD: p.EquipmentUSD / p.ThroughputTbps,
		PowerWatts:   p.PowerWatts / p.ThroughputTbps,
	}
}

// Savings returns how much b saves against a, per Tbps (Table 6's last row).
func Savings(a, b Platform) PerTbps {
	na, nb := a.Normalize(), b.Normalize()
	return PerTbps{
		EquipmentUSD: na.EquipmentUSD - nb.EquipmentUSD,
		PowerWatts:   na.PowerWatts - nb.PowerWatts,
	}
}

// ServersReplacedBy returns how many MoonGen servers one switch of the given
// capacity replaces (§7.4: a 6.5 Tbps switch replaces 81 8-core servers).
func ServersReplacedBy(switchTbps float64) int {
	return int(switchTbps / MoonGenServer.ThroughputTbps)
}

// SynFlood captures the Table 8 estimation.
type SynFlood struct {
	ThroughputGbps float64
	SynPacketMpps  float64
	EmulatedAgents float64
}

// SynFloodPacketNs is the wire time of one 64-byte SYN at 1 Gbps — used to
// convert throughput to packet rate (64+16 bytes of occupancy).
const synWireBitsPerPkt = (64 + 16) * 8

// AgentTrafficMbps is the SYN-flood traffic one distributed attack agent
// generates (1 Mbps, per [72]).
const AgentTrafficMbps = 1.0

// EstimateSynFlood converts a generation throughput into Table 8's rows.
// efficiency is the fraction of raw bandwidth achievable with 64-byte SYNs
// (the paper estimates 80% for a 6.5 Tbps switch).
func EstimateSynFlood(rawGbps, efficiency float64) SynFlood {
	gbps := rawGbps * efficiency
	return SynFlood{
		ThroughputGbps: gbps,
		SynPacketMpps:  gbps * 1e3 / synWireBitsPerPkt,
		EmulatedAgents: gbps * 1e3 / AgentTrafficMbps,
	}
}
