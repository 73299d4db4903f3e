// Package htps implements the HyperTester Packet Sender (§5.1): the
// accelerator that fills the recirculation loop with template packets, the
// replicator whose register timer gates multicast replication at the
// configured rate, and the editor that rewrites replica header fields
// (constants, value lists, arithmetic progressions, inverse-transform
// random values, and trigger-record stamping for stateless connections).
package htps

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/switchcpu"
)

// Multicast group ID allocation.
const (
	fireGidBase     = 1    // fire group per template: gid = template ID
	fillGidBase     = 4096 // loop-fill group per template
	portFireGidBase = 8192 // per-ingress-port fire groups (stateless)
	portGidStride   = 256
)

// Sender deploys compiled templates onto a switch.
type Sender struct {
	sw   *asic.Switch
	cpu  *switchcpu.CPU
	prog *compiler.Program
	// states is indexed by template ID (1-based and small); slot 0 and any
	// gap are nil.
	states []*templateState
}

type templateState struct {
	tmpl *compiler.Template

	fireGid int
	fillGid int
	// portGids maps a trigger record's ingress port to a fire group
	// (stateless templates with no static ports answer on the port the
	// triggering packet arrived on).
	portGids map[int]int

	inflight       *asic.RegisterArray // cell 0: copies in the loop
	inflightTarget int

	timer *asic.RegisterArray // cell 0: last fire time (ps)
	// curIntervalPs is the active timer threshold; with a random
	// inter-departure distribution it is resampled after every fire.
	curIntervalPs int64

	// Fired counts replication events (the editor's packet ID source).
	Fired uint64

	rng *netsim.RNG

	// fifo is the trigger-record source for stateless templates.
	fifo *stateless.FIFO
	// recordIdx[i] is where tmpl.Mods[i], a ModFromRecord, reads the
	// record; -1 for a field the record lacks (and for every other mod).
	recordIdx []int
	inPortIdx int
}

// New builds a sender for a compiled program. triggerFIFOs maps query IDs to
// the record FIFOs HTPR fills (one per stateless trigger).
func New(sw *asic.Switch, cpu *switchcpu.CPU, prog *compiler.Program,
	triggerFIFOs map[int]*stateless.FIFO, seed int64) (*Sender, error) {

	maxID := 0
	for _, t := range prog.Templates {
		maxID = max(maxID, t.ID)
	}
	s := &Sender{sw: sw, cpu: cpu, prog: prog, states: make([]*templateState, maxID+1)}

	// Loop capacity is shared among templates (§7.3): each template gets
	// an equal share of the in-flight budget across all paths.
	minSize := 1500
	for _, t := range prog.Templates {
		if t.Packet.Len() < minSize {
			minSize = t.Packet.Len()
		}
	}
	totalCapacity := sw.RecircPaths() * asic.AcceleratorCapacity(minSize)
	perTemplate := 1
	if len(prog.Templates) > 0 {
		perTemplate = totalCapacity / len(prog.Templates)
		if perTemplate < 1 {
			perTemplate = 1
		}
	}

	for _, tmpl := range prog.Templates {
		st := &templateState{
			tmpl:           tmpl,
			fireGid:        tmpl.ID,
			fillGid:        fillGidBase + tmpl.ID,
			inflight:       asic.NewRegisterArray(fmt.Sprintf("accel_inflight_%d", tmpl.ID), 1),
			inflightTarget: perTemplate,
			timer:          asic.NewRegisterArray(fmt.Sprintf("repl_timer_%d", tmpl.ID), 1),
			curIntervalPs:  tmpl.IntervalPs,
			rng:            netsim.NewRNG(seed, fmt.Sprintf("editor/%d", tmpl.ID)),
		}

		if tmpl.FromQueryID != 0 {
			fifo := triggerFIFOs[tmpl.FromQueryID]
			if fifo == nil {
				return nil, fmt.Errorf("htps: template %d has no trigger FIFO for query %d",
					tmpl.ID, tmpl.FromQueryID)
			}
			st.fifo = fifo
			st.inPortIdx = fifo.FieldIndex(asic.FieldInPort)
		}
		st.recordIdx = make([]int, len(tmpl.Mods))
		for i, m := range tmpl.Mods {
			st.recordIdx[i] = -1
			if st.fifo != nil && m.Kind == compiler.ModFromRecord {
				st.recordIdx[i] = st.fifo.FieldIndex(m.RecordField)
			}
		}

		// The loop-continuation copy: recirculation path by template ID.
		recircPort := asic.RecircPortBase + (tmpl.ID % sw.RecircPaths())
		cont := asic.CopySpec{Port: recircPort, Rid: 0}

		fire := []asic.CopySpec{cont}
		for i, p := range tmpl.Ports {
			fire = append(fire, asic.CopySpec{Port: p, Rid: i + 1})
		}
		if len(tmpl.Ports) > 0 {
			if err := sw.Mcast.SetGroup(st.fireGid, fire); err != nil {
				return nil, err
			}
		}
		if st.fifo != nil && len(tmpl.Ports) == 0 {
			// Stateless template answering on the triggering port:
			// one preinstalled group per front-panel port.
			st.portGids = make(map[int]int)
			for p := 0; p < sw.NumPorts(); p++ {
				gid := portFireGidBase + tmpl.ID*portGidStride + p
				if err := sw.Mcast.SetGroup(gid, []asic.CopySpec{cont, {Port: p, Rid: 1}}); err != nil {
					return nil, err
				}
				st.portGids[p] = gid
			}
		}
		// Loop-fill group: double the template back into the loop.
		if err := sw.Mcast.SetGroup(st.fillGid, []asic.CopySpec{cont, {Port: recircPort, Rid: 0}}); err != nil {
			return nil, err
		}
		s.states[tmpl.ID] = st
	}
	return s, nil
}

// State exposes a template's runtime state (tests, reports); nil for an ID
// no template carries. The switch's loop model is synced first, so register
// Accesses read through it are exact.
//
//htlint:ignore deadexport inspection tap: the elision oracle reads each template's state
func (s *Sender) State(templateID int) *templateState {
	s.sw.SyncLoop()
	return s.state(templateID)
}

func (s *Sender) state(templateID int) *templateState {
	if templateID < 0 || templateID >= len(s.states) {
		return nil
	}
	return s.states[templateID]
}

// IdleUntil is the sender's half of the tester's idle oracle
// (asic.IdleOracle): the virtual time before which an ingress pass of the
// template only recirculates. It mirrors IngressProcessor branch for branch,
// reading silently: the accelerator share must be full; a stateless template
// is idle while its trigger FIFO is empty; a finished stream forever; a timed
// one until last fire + interval. A template that fires on every arrival (or
// an ID no template carries) is never idle.
func (s *Sender) IdleUntil(templateID int) netsim.Time {
	st := s.state(templateID)
	if st == nil || st.inflight.Peek(0) < uint64(st.inflightTarget) {
		return 0
	}
	switch {
	case st.fifo != nil:
		if st.fifo.Empty() {
			return netsim.MaxTime
		}
	case st.tmpl.LoopPackets > 0 && st.Fired >= st.tmpl.LoopPackets:
		return netsim.MaxTime
	case st.curIntervalPs > 0:
		return netsim.Time(int64(st.timer.Peek(0)) + st.curIntervalPs)
	}
	return 0
}

// AccountIdle credits n ingress passes IdleUntil declared idle with the SALU
// accesses each performs: the accelerator's inflight check, then the empty
// trigger-FIFO pop or the replicator's timer check.
func (s *Sender) AccountIdle(templateID int, n uint64) {
	st := s.state(templateID)
	if st == nil {
		return
	}
	st.inflight.Accesses += n
	switch {
	case st.fifo != nil:
		st.fifo.AccountEmptyPops(n)
	case st.tmpl.LoopPackets > 0 && st.Fired >= st.tmpl.LoopPackets:
	case st.curIntervalPs > 0:
		st.timer.Accesses += n
	}
}

// Registers lists the template's register arrays: the accelerator's
// in-flight counter and the replicator's timer.
//
//htlint:ignore deadexport inspection tap: the elision oracle compares template register cells
func (st *templateState) Registers() []*asic.RegisterArray {
	return []*asic.RegisterArray{st.inflight, st.timer}
}

// NextEditorDraw consumes and returns one draw of the template's editor
// stream. Differential tests call it on both runs at the same instants to
// pin the stream's position; nothing else should.
//
//htlint:ignore deadexport inspection tap: the elision oracle compares every editor's next draw
func (st *templateState) NextEditorDraw() int64 { return st.rng.Int63() }

// FiredCount returns how many replication events a template has produced.
func (s *Sender) FiredCount(templateID int) uint64 {
	if st := s.state(templateID); st != nil {
		return st.Fired
	}
	return 0
}

// Describe records every template's fire count under prefix, in program
// order.
func (s *Sender) Describe(r *obs.Registry, prefix string) {
	for _, tmpl := range s.prog.Templates {
		r.Num(prefix, fmt.Sprintf("template%d.fired", tmpl.ID), float64(s.FiredCount(tmpl.ID)))
	}
}

// Observe binds every template's SALU register arrays (accelerator inflight
// counter, replication timer) to a trace stream, emitting one salu record
// per access.
func (s *Sender) Observe(clock *netsim.Sim, tr *obs.Trace) {
	for _, st := range s.states {
		if st != nil {
			st.inflight.Observe(clock, tr)
			st.timer.Observe(clock, tr)
		}
	}
}

// Start injects every template packet from the switch CPU (step 2 of the
// §5.4 workflow). The accelerator then fills the loop by doubling.
func (s *Sender) Start() {
	for _, tmpl := range s.prog.Templates {
		s.cpu.InjectTemplate(tmpl.Packet.Clone())
	}
}

// IngressProcessor implements the accelerator and replicator.
func (s *Sender) IngressProcessor() asic.Processor {
	return asic.ProcessorFunc(func(p *asic.PHV) {
		st := s.state(p.Meta.TemplateID)
		if st == nil {
			return
		}
		// Accelerator: double the template until the loop share is full.
		filled := st.inflight.RMW(0, func(old uint64) (uint64, uint64) {
			if old < uint64(st.inflightTarget) {
				return old + 1, 0
			}
			return old, 1
		})
		if filled == 0 {
			p.McastGroup = st.fillGid
			return
		}

		if st.fifo != nil {
			s.fireStateless(st, p)
			return
		}

		// Loop bound: a finished stream keeps its templates circulating
		// idle (the task can be restarted without re-filling the loop).
		if st.tmpl.LoopPackets > 0 && st.Fired >= st.tmpl.LoopPackets {
			p.Recirculate = true
			return
		}

		// Replicator timer (§5.1): fire when now - last >= interval. The
		// decision quantizes to template arrival times — the source of
		// the few-ns rate-control error the paper measures. With a
		// random inter-departure distribution, every fire draws a fresh
		// threshold from the inverse-transform table (§3.1).
		if st.curIntervalPs > 0 {
			now := int64(s.sw.Sim().Now())
			fired := st.timer.RMW(0, func(last uint64) (uint64, uint64) {
				if now-int64(last) >= st.curIntervalPs {
					return uint64(now), 1
				}
				return last, 0
			})
			if fired == 0 {
				p.Recirculate = true
				return
			}
			if n := len(st.tmpl.IntervalTablePs); n > 0 {
				st.curIntervalPs = st.tmpl.IntervalTablePs[st.rng.Intn(n)]
			}
		}
		p.Meta.SeqID = st.Fired
		st.Fired++
		p.McastGroup = st.fireGid
	})
}

// fireStateless pops one trigger record and fires the template with it; an
// empty FIFO just recirculates the template.
func (s *Sender) fireStateless(st *templateState, p *asic.PHV) {
	rec, ok := st.fifo.Pop()
	if !ok {
		p.Recirculate = true
		return
	}
	p.Meta.Record = rec
	p.Meta.SeqID = st.Fired
	st.Fired++
	if len(st.tmpl.Ports) > 0 {
		p.McastGroup = st.fireGid
		return
	}
	port := 0
	if st.inPortIdx >= 0 {
		port = int(rec[st.inPortIdx])
	}
	gid, ok := st.portGids[port]
	if !ok {
		// Triggering packet arrived on a port with no preinstalled
		// group (e.g. the CPU port); drop the record.
		p.Recirculate = true
		return
	}
	p.McastGroup = gid
}

// EgressProcessor implements the editor: replicas (rid != 0) get their
// fields rewritten; the rid-0 continuation copy stays pristine.
func (s *Sender) EgressProcessor() asic.Processor {
	return asic.ProcessorFunc(func(p *asic.PHV) {
		if p.Meta.TemplateID == 0 || p.Meta.ReplicaID == 0 {
			return
		}
		st := s.state(p.Meta.TemplateID)
		if st == nil {
			return
		}
		seq := p.Meta.SeqID
		for i := range st.tmpl.Mods {
			m := &st.tmpl.Mods[i]
			switch m.Kind {
			case compiler.ModConst:
				m.Field.Set(p, m.Const)
			case compiler.ModList, compiler.ModProgression:
				m.Field.Set(p, m.ValueAt(seq))
			case compiler.ModRandom:
				draw := st.rng.Int63() & (1<<uint(m.RandBits) - 1)
				idx := int(uint64(draw) * uint64(len(m.InvTable)) >> uint(m.RandBits))
				m.Field.Set(p, m.InvTable[idx])
			case compiler.ModFromRecord:
				if p.Meta.Record == nil || st.recordIdx[i] < 0 {
					continue
				}
				idx := st.recordIdx[i]
				v := uint64(int64(p.Meta.Record[idx]) + m.RecordOffset)
				m.Field.Set(p, v&m.Field.MaxValue())
			}
		}
	})
}
