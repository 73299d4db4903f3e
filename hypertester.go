// Package hypertester is a faithful, simulator-backed reproduction of
// HyperTester (Zhou et al., CoNEXT 2019): a high-performance network tester
// driven by programmable switches. Testing tasks are written against the
// Network Testing API (NTAPI) — packet-stream triggers and queries — and
// compiled onto a Tofino-class RMT switch model that implements
// template-based packet generation, timer-gated multicast replication,
// header editing, false-positive-free counter-based queries, and stateless
// connections, all on a deterministic picosecond-resolution virtual clock.
//
// A minimal session:
//
//	ht := hypertester.New(hypertester.Config{Ports: []float64{100, 100}})
//	task, _ := ntapi.Parse("throughput", src) // or build with the ntapi API
//	ht.LoadTask(task)
//	testbed.Connect(ht.Sim, ht.Port(0), deviceUnderTest, cableDelay)
//	ht.Start()
//	ht.RunFor(netsim.Millisecond)
//	for _, rep := range ht.Reports() { ... }
package hypertester

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/htps"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/switchcpu"
)

// Config describes the tester switch to build.
type Config struct {
	// Sim is the simulation to join; nil creates a fresh one.
	Sim *netsim.Sim
	// Ports lists front-panel port rates in Gbps (index = port ID).
	Ports []float64
	// RecircPaths is the number of recirculation paths (default 1);
	// raise it to emulate §6.1's loopback-port capacity extension.
	RecircPaths int
	// Seed drives all of the tester's randomness.
	Seed int64
}

// Tester is one HyperTester instance: a programmable switch plus its switch
// CPU, ready to load and execute one testing task at a time.
type Tester struct {
	Sim    *netsim.Sim
	Switch *asic.Switch
	CPU    *switchcpu.CPU

	Program  *compiler.Program
	Sender   *htps.Sender
	Receiver *htpr.Receiver

	cfg   Config
	trace *obs.Trace
}

// New builds a tester switch. Load a task with LoadTask before starting.
func New(cfg Config) *Tester {
	if cfg.Sim == nil {
		cfg.Sim = netsim.New()
	}
	if len(cfg.Ports) == 0 {
		cfg.Ports = []float64{100}
	}
	// The switch's name labels diagnostics and seeds its RNG streams
	// ("hypertester/recirc", …): one constant, so every testbed draws alike.
	sw := asic.New(asic.Config{
		Name: "hypertester", Sim: cfg.Sim, PortGbps: cfg.Ports,
		RecircPaths: cfg.RecircPaths, Seed: cfg.Seed,
	})
	return &Tester{
		Sim:    cfg.Sim,
		Switch: sw,
		CPU:    switchcpu.New(cfg.Sim, sw),
		cfg:    cfg,
	}
}

// Port returns a front-panel port for testbed wiring.
func (t *Tester) Port(id int) *asic.Port { return t.Switch.Port(id) }

// EnableTrace attaches a per-packet lifecycle trace stream to the tester:
// the switch (parse/table/TM/mcast/recirculate/deparse/digest/drop/wire
// records) plus the SALU register arrays of any loaded task. Tracing is
// purely observational — enabling it changes no experiment result — and a
// nil stream disables it. Call any time; a task loaded later inherits the
// stream.
func (t *Tester) EnableTrace(tr *obs.Trace) {
	t.trace = tr
	t.Switch.SetTrace(tr)
	t.observeProgram()
}

// observeProgram binds the active task's register arrays to the trace.
func (t *Tester) observeProgram() {
	if t.trace == nil {
		return
	}
	if t.Sender != nil {
		t.Sender.Observe(t.Sim, t.trace)
	}
	if t.Receiver != nil {
		t.Receiver.Observe(t.Sim, t.trace)
	}
}

// Describe records the tester's health metrics (switch counters, pools,
// digest channel) on r under the switch name.
func (t *Tester) Describe(r *obs.Registry) { t.Switch.Describe(r, t.Switch.Name) }

// LoadTask compiles a task and deploys it onto the switch, replacing any
// previously loaded task.
func (t *Tester) LoadTask(task *ntapi.Task) error {
	prog, err := compiler.Compile(task, compiler.Options{RecircPaths: t.Switch.RecircPaths()})
	if err != nil {
		return err
	}
	return t.deploy(prog)
}

// LoadTaskSource parses NTAPI source text and loads the resulting task.
func (t *Tester) LoadTaskSource(name, src string) error {
	task, err := ntapi.Parse(name, src)
	if err != nil {
		return err
	}
	return t.LoadTask(task)
}

// idleOracle answers the switch's loop model from what the sender and the
// receiver already hold: a template pass is idle when the receiver has
// nothing for it to drain or carry and the sender would only recirculate it.
type idleOracle struct {
	send *htps.Sender
	recv *htpr.Receiver
}

func (o idleOracle) IdleUntil(templateID int) netsim.Time {
	// The sender's answer first: a template that fires on every arrival
	// (line rate) is settled by one field load.
	until := o.send.IdleUntil(templateID)
	if until != 0 && !o.recv.TemplatePassIdle() {
		return 0
	}
	return until
}

func (o idleOracle) AccountIdle(templateID int, passes uint64) {
	o.recv.AccountIdlePasses(passes)
	o.send.AccountIdle(templateID, passes)
}

func (t *Tester) deploy(prog *compiler.Program) error {
	recv := htpr.NewReceiver(prog, t.Switch)
	fifos := map[int]*stateless.FIFO{}
	for _, q := range prog.Queries {
		if f := recv.TriggerFIFO(q.ID); f != nil {
			fifos[q.ID] = f
		}
	}
	send, err := htps.New(t.Switch, t.CPU, prog, fifos, t.cfg.Seed)
	if err != nil {
		return err
	}

	// The pipelines are about to change under whatever still circles the
	// loop: the flush settles the loop model's account under the old
	// program first, and hands the digests the old program queued to the
	// old receiver, which is still the one the CPU merges into. Only then
	// do evictions travel to the new receiver (§5.2 push mode).
	t.Switch.FlushDigests()
	t.CPU.OnDigest = func(msg []byte, _ netsim.Time) { recv.MergeDigest(msg) }

	// Pipeline layout (§5.2): ingress runs the receiver first (received
	// traffic + KV-FIFO drains on template passes), then the sender
	// (accelerator + replicator). Egress runs the editor before the
	// sent-traffic queries so queries observe the final test packets.
	t.Switch.Ingress.Clear()
	t.Switch.Egress.Clear()
	t.Switch.Ingress.Add(recv.IngressProcessor(), send.IngressProcessor())
	t.Switch.Egress.Add(send.EgressProcessor(), recv.EgressProcessor())

	// Template copies whose pass provably fires nothing are accounted by
	// the switch's loop model instead of being scheduled hop by hop (there
	// is no knob: a traced tester, or a switch without an oracle, runs
	// every hop as an event).
	t.Switch.SetIdleOracle(idleOracle{send, recv})

	t.Program = prog
	t.Sender = send
	t.Receiver = recv
	t.observeProgram()
	return nil
}

// Start injects the template packets; generation begins once the
// accelerator fills the recirculation loop (a few microseconds of virtual
// time).
func (t *Tester) Start() error {
	if t.Sender == nil {
		return fmt.Errorf("hypertester: no task loaded")
	}
	t.Sender.Start()
	return nil
}

// RunFor advances virtual time by d.
func (t *Tester) RunFor(d netsim.Duration) { t.Sim.RunFor(d) }

// Reports collects every query's results (the switch CPU's view): the CPU
// reads out any digests still queued on the channel, then assembles reports.
func (t *Tester) Reports() []htpr.Report {
	if t.Receiver == nil {
		return nil
	}
	t.Switch.FlushDigests()
	return t.Receiver.Collect()
}

// Report returns one query's report by name.
func (t *Tester) Report(queryName string) (htpr.Report, bool) {
	for _, r := range t.Reports() {
		if r.Query == queryName {
			return r, true
		}
	}
	return htpr.Report{}, false
}

// GeneratedP4 renders the compiled data-plane program (what the paper's
// Table 5 counts).
func (t *Tester) GeneratedP4() string {
	if t.Program == nil {
		return ""
	}
	return p4ir.Print(t.Program.P4)
}

// Resources returns the program's estimated data-plane resource usage,
// normalized by switch.p4 (the paper's Table 7 methodology).
func (t *Tester) Resources() p4ir.Normalized {
	if t.Program == nil {
		return p4ir.Normalized{}
	}
	return t.Program.Resources.Normalize(p4ir.SwitchP4Baseline)
}
