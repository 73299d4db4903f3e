package compiler

import (
	"fmt"
	"strings"

	"github.com/hypertester/hypertester/internal/p4ir"
)

// This file is the stage-placement check: validate.go's whole-chip budget
// says whether a program fits the chip *in total*; VerifyPlan says whether
// its tables can be *laid out* on an RMT pipeline — a table has to live in
// *some* stage, and stages are finite. Whether the laid-out plan is safe to
// execute (parser termination, one stateful-ALU access per pass, bounded
// recirculation, header validity) is the symbolic walker's verdict
// (internal/verify), which validateProgram asks for exactly once.
//
// The model is deliberately conservative where the real chip's compiler
// backtracks: placement is greedy in control order, and a table may span
// consecutive stages when wider than one stage's budget.

// StageModel is the stage-level capacity of the target ASIC.
type StageModel struct {
	// Stages is the number of physical match-action stages per pipeline
	// direction.
	Stages int
	// PerStage is the resource capacity of one stage.
	PerStage p4ir.Resources
}

// TofinoStageModel divides ChipBudget evenly across 12 stages, matching
// the RMT accounting validate.go uses for totals. SALUs are the hard
// per-stage wall: four per stage, the figure the paper leans on when
// explaining Table 7's SALU percentages.
var TofinoStageModel = StageModel{
	Stages: 12,
	PerStage: p4ir.Resources{
		CrossbarBytes: ChipBudget.CrossbarBytes / 12,
		SRAMBlocks:    ChipBudget.SRAMBlocks / 12,
		TCAMBlocks:    ChipBudget.TCAMBlocks / 12,
		VLIWSlots:     ChipBudget.VLIWSlots / 12,
		HashBits:      ChipBudget.HashBits / 12,
		SALUs:         ChipBudget.SALUs / 12,
		Gateways:      ChipBudget.Gateways / 12,
	},
}

// VerifyPlan checks that both pipelines of a compiled plan can be placed
// into the stage model. It returns the first table that cannot be laid out,
// or nil.
func VerifyPlan(p *p4ir.Program, m StageModel) error {
	pl := placer{
		prog:      p,
		model:     m,
		tables:    map[string]*p4ir.TableDef{},
		actions:   map[string]*p4ir.ActionDef{},
		registers: map[string]*p4ir.RegisterDef{},
	}
	for _, t := range p.Tables {
		pl.tables[t.Name] = t
	}
	for _, a := range p.Actions {
		pl.actions[a.Name] = a
	}
	for _, r := range p.Registers {
		pl.registers[r.Name] = r
	}
	if err := pl.place("ingress", p.Ingress); err != nil {
		return err
	}
	return pl.place("egress", p.Egress)
}

type placer struct {
	prog      *p4ir.Program
	model     StageModel
	tables    map[string]*p4ir.TableDef
	actions   map[string]*p4ir.ActionDef
	registers map[string]*p4ir.RegisterDef
}

// place lays one pipeline's tables into stages greedily in apply order —
// the order hardware dependencies follow, since our generator applies
// producers before consumers — and rejects the program when the tables do
// not fit the stage count. A table wider than one stage's budget spans
// consecutive stages (RMT table spreading); a register's SRAM is placed
// with the first table that accesses it.
func (pl *placer) place(pipe string, stmts []p4ir.ControlStmt) error {
	m := pl.model
	var order []string
	seenTbl := map[string]bool{}
	var walk func(list []p4ir.ControlStmt)
	walk = func(list []p4ir.ControlStmt) {
		for i := range list {
			s := &list[i]
			if s.Apply != "" && !seenTbl[s.Apply] && pl.tables[s.Apply] != nil {
				seenTbl[s.Apply] = true
				order = append(order, s.Apply)
			}
			walk(s.Then)
			walk(s.Else)
		}
	}
	walk(stmts)

	regPlaced := map[string]bool{}
	stage := 0 // current stage index (0-based)
	var use p4ir.Resources
	for _, name := range order {
		t := pl.tables[name]
		cost := p4ir.TableCost(pl.prog, t)
		for _, an := range t.Actions {
			a := pl.actions[an]
			if a == nil {
				continue // p4ir.Validate reports unknown actions
			}
			for _, op := range a.Ops {
				switch op.Kind {
				case p4ir.OpRegisterRead, p4ir.OpRegisterWrite, p4ir.OpRegisterRMW:
					if r := pl.registers[op.Dst]; r != nil && !regPlaced[op.Dst] {
						regPlaced[op.Dst] = true
						cost.Add(p4ir.RegisterCost(r))
					}
				}
			}
		}

		span := stagesNeeded(cost, m.PerStage)
		if span > m.Stages {
			return fmt.Errorf(
				"compiler: table %s alone needs %d stages of %d (%s); the table cannot be laid out (§6.1)",
				name, span, m.Stages, overflowColumn(cost, m.PerStage))
		}
		sum := use
		sum.Add(cost)
		if fits(sum, m.PerStage) {
			use = sum
			continue
		}
		// Advance to a fresh stage (or a run of them for a spanning
		// table).
		stage += span
		if stage+1 > m.Stages {
			return fmt.Errorf(
				"compiler: stage budget overflow in %s: table %s needs stage %d but the chip has %d stages (%s); the task cannot be accommodated (§6.1)",
				pipe, name, stage+1, m.Stages, overflowColumn(cost, m.PerStage))
		}
		if span > 1 {
			// The spanning table fills its stages completely; the next
			// table starts fresh.
			use = m.PerStage
		} else {
			use = cost
		}
	}
	return nil
}

// fits reports whether use stays within cap on every column.
func fits(use, cap p4ir.Resources) bool {
	capCols := cap.Columns()
	for i, c := range use.Columns() {
		if c.Value > capCols[i].Value {
			return false
		}
	}
	return true
}

// stagesNeeded returns how many whole stages a cost spans: the max over
// columns of ceil(cost/perStage).
func stagesNeeded(cost, per p4ir.Resources) int {
	n := 1
	perCols := per.Columns()
	for i, c := range cost.Columns() {
		a, b := c.Value, perCols[i].Value
		if a <= 0 || b <= 0 {
			continue
		}
		k := int(a / b)
		if float64(k)*b < a {
			k++
		}
		if k > n {
			n = k
		}
	}
	return n
}

// overflowColumn names the resource column that drives a placement
// failure, for actionable error messages.
func overflowColumn(cost, per p4ir.Resources) string {
	worst, ratio := "resources", 0.0
	perCols := per.Columns()
	for i, c := range cost.Columns() {
		pcap := perCols[i].Value
		if pcap <= 0 {
			continue
		}
		if r := c.Value / pcap; r > ratio {
			// Stage messages have always said "crossbar" where the
			// whole-chip message says "match crossbar".
			name := strings.TrimPrefix(c.Name, "match ")
			worst, ratio = fmt.Sprintf("%s %.1f per-stage cap %.1f", name, c.Value, pcap), r
		}
	}
	return worst
}
