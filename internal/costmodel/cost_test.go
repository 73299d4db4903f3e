package costmodel

import (
	"math"
	"testing"
)

func TestTable6Numbers(t *testing.T) {
	mg := MoonGenServer.Normalize()
	ht := HyperTesterSwitch.Normalize()
	// Table 6: MoonGen $42000 and 7200W per Tbps; HyperTester $3600/150W.
	if math.Abs(mg.EquipmentUSD-43750) > 2000 {
		t.Fatalf("MoonGen equipment/Tbps = %.0f, want ~42000-44000", mg.EquipmentUSD)
	}
	if math.Abs(mg.PowerWatts-9375) > 2200 {
		t.Fatalf("MoonGen power/Tbps = %.0f, want ~7200-9400", mg.PowerWatts)
	}
	if ht.EquipmentUSD != 3600 || ht.PowerWatts != 150 {
		t.Fatalf("HyperTester per Tbps = %+v", ht)
	}
	s := Savings(MoonGenServer, HyperTesterSwitch)
	// Paper: saves $38,400 and 7,150W per Tbps.
	if s.EquipmentUSD < 38000 {
		t.Fatalf("equipment savings = %.0f, want >= 38400-ish", s.EquipmentUSD)
	}
	if s.PowerWatts < 7000 {
		t.Fatalf("power savings = %.0f, want >= 7050-ish", s.PowerWatts)
	}
}

func TestServersReplaced(t *testing.T) {
	// §7.4: a 6.5 Tbps switch replaces 81 8-core servers.
	if got := ServersReplacedBy(6.5); got != 81 {
		t.Fatalf("servers replaced = %d, want 81", got)
	}
}

func TestTable8SynFlood(t *testing.T) {
	// Testbed row: 400 Gbps raw at full efficiency.
	tb := EstimateSynFlood(400, 1.0)
	if math.Abs(tb.SynPacketMpps-625) > 40 {
		t.Fatalf("testbed SYN rate = %.0f Mpps, want ~595-625", tb.SynPacketMpps)
	}
	if math.Abs(tb.EmulatedAgents-4e5) > 1e4 {
		t.Fatalf("testbed agents = %.0f, want ~4e5", tb.EmulatedAgents)
	}
	// Estimation row: 6.5 Tbps at 80%.
	est := EstimateSynFlood(6500, 0.8)
	if math.Abs(est.ThroughputGbps-5200) > 1 {
		t.Fatalf("estimated throughput = %.0f, want 5200", est.ThroughputGbps)
	}
	if math.Abs(est.SynPacketMpps-7737) > 600 {
		t.Fatalf("estimated SYN rate = %.0f Mpps, want ~7737-8125", est.SynPacketMpps)
	}
	if math.Abs(est.EmulatedAgents-5.2e6) > 1e4 {
		t.Fatalf("estimated agents = %.0f, want 5.2e6", est.EmulatedAgents)
	}
}
