package scenario

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/testbed"

	hypertester "github.com/hypertester/hypertester"
)

// Rig is a wired testbed: the tester switch on one logical process and one
// DUT per front-panel port, each on its own. It is the one place a tester is
// cabled to devices under test — scenarios, the paper experiments and the
// CLI's -task mode all build through it — so there is one topology
// validation, one DUT catalogue and one set of RNG stream names. Callers
// keep what to measure, check and print.
type Rig struct {
	Partition *testbed.Partition
	Tester    *hypertester.Tester
	DUTs      []DUT // in port order
}

// DUT is one device-under-test instance.
type DUT struct {
	Iface *testbed.Iface
	Sink  *testbed.Sink           // sink and hhsink only
	Farm  *testbed.HTTPServerFarm // httpfarm only
	walks []walk
	reset func() // clears counters at end of warmup (nil = none)
}

// walk is one device's Describe under the prefix Run's catalogue gives it.
type walk struct {
	prefix string
	dev    interface{ Describe(*obs.Registry, string) }
}

// Describe records the DUT's own metrics (see Run's catalogue) on r.
func (d DUT) Describe(r *obs.Registry) {
	for _, w := range d.walks {
		w.dev.Describe(r, w.prefix)
	}
}

// Build validates topo and wires it: a partition of workers (<= 0 means
// topo.SimWorkers), the tester on LP "tester" with the program loaded, then
// one DUT per port from the catalogue, cabled in port order. LPs and — with
// a non-nil trace — trace streams are created in that same order, which fixes
// merge ranks and keeps the canonical trace engine-independent. seed drives
// all of the testbed's randomness. A nil trace leaves the tester's loop model
// engaged; a traced tester runs every loop hop as an event.
func Build(topo Topology, progName, src string, seed int64, workers int, trace *obs.TraceSet) (*Rig, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = topo.SimWorkers
	}
	p := testbed.NewPartition(workers)
	ht := hypertester.New(hypertester.Config{Sim: p.LP("tester"), Ports: topo.Ports, Seed: seed})
	if trace != nil {
		ht.EnableTrace(trace.New("tester"))
	}
	if err := ht.LoadTaskSource(progName, src); err != nil {
		return nil, err
	}
	r := &Rig{Partition: p, Tester: ht, DUTs: make([]DUT, len(topo.Ports))}
	for i, gbps := range topo.Ports {
		if topo.DUTGbps != 0 {
			gbps = topo.DUTGbps
		}
		d := buildDUT(p, topo.DUT, i, gbps, seed)
		if trace != nil {
			d.Iface.SetTrace(trace.New(d.Iface.Name))
		}
		p.Connect(ht.Port(i), d.Iface, netsim.Ns(topo.CableDelayNs))
		r.DUTs[i] = d
	}
	return r, nil
}

// Run is the measurement protocol: start the task Build loaded, run the
// warm-up, reset the DUTs that measure rates (sink, hhsink) so their
// statistics cover the clean window, run the window; stateful DUTs
// accumulate across both. Durations are picosecond-exact. Callers advancing
// time afterwards do so through r.Partition.
func (r *Rig) Run(warmup, window netsim.Duration) {
	r.Tester.Sender.Start()
	r.Partition.RunFor(warmup)
	for _, d := range r.DUTs {
		if d.reset != nil {
			d.reset()
		}
	}
	r.Partition.RunFor(window)
}

// buildDUT constructs one device instance of the given kind on its own
// logical process, with its reset behaviour and metric prefixes — the DUT
// catalogue.
func buildDUT(p *testbed.Partition, kind string, i int, gbps float64, seed int64) DUT {
	name := fmt.Sprintf("%s%d", kind, i)
	sim := p.LP(name)
	switch kind {
	case DUTSink:
		s := testbed.NewSink(sim, name, gbps)
		return DUT{Iface: s.Iface, Sink: s, reset: s.Reset, walks: []walk{{name, s}}}
	case DUTHHSink:
		h := NewHHSink(sim, name, gbps)
		return DUT{Iface: h.Sink.Iface, Sink: h.Sink, reset: h.Reset,
			walks: []walk{{fmt.Sprintf("sink%d", i), h.Sink}, {fmt.Sprintf("hh%d", i), h}}}
	case DUTReflector:
		r := testbed.NewReflector(sim, name, gbps)
		r.Seed(seed)
		return DUT{Iface: r.Iface, walks: []walk{{name, r}}}
	case DUTScanTarget:
		t := testbed.NewScanTarget(sim, name, gbps)
		return DUT{Iface: t.Iface, walks: []walk{{name, t}}}
	case DUTHTTPFarm:
		f := testbed.NewHTTPServerFarm(sim, name, gbps)
		return DUT{Iface: f.Iface, Farm: f, walks: []walk{{name, f}}}
	}
	panic(fmt.Sprintf("scenario: unknown DUT kind %q", kind)) // Validate rejects earlier
}
