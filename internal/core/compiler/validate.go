package compiler

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/verify"
)

// ChipBudget is the absolute resource capacity of the target switching
// ASIC, a Tofino-class chip: switch.p4 consumes roughly half of most
// classes, and stateful ALUs (which switch.p4 barely uses — the point the
// paper makes under Table 7) come four per stage across 12 stages. Programs
// exceeding any column are rejected at compile time, the behaviour §6.1
// requires ("HyperTester will reject the testing tasks that cannot be
// accommodated by switching ASIC").
var ChipBudget = p4ir.Resources{
	CrossbarBytes: 1536,
	SRAMBlocks:    1187,
	TCAMBlocks:    372,
	VLIWSlots:     710,
	HashBits:      3260,
	SALUs:         48,
	Gateways:      192,
}

// validateProgram enforces the feasibility checks of §6.1.
func validateProgram(prog *Program, opts Options) error {
	// Template count against accelerator capacity: every template must
	// keep at least one copy in flight, and capacity shrinks with frame
	// size. Loopback ports extend it linearly (§6.1).
	if len(prog.Templates) > 0 {
		minSize := 1500
		for _, t := range prog.Templates {
			if t.Packet.Len() < minSize {
				minSize = t.Packet.Len()
			}
		}
		capacity := opts.RecircPaths * asic.AcceleratorCapacity(minSize)
		if len(prog.Templates) > capacity {
			return fmt.Errorf(
				"compiler: %d template packets exceed the accelerator capacity of %d (%d path(s), %d-byte templates); configure more loopback ports (§6.1)",
				len(prog.Templates), capacity, opts.RecircPaths, minSize)
		}
	}

	budget := ChipBudget.Columns()
	for i, c := range prog.Resources.Columns() {
		if c.Value > budget[i].Value {
			return fmt.Errorf(
				"compiler: task needs %.1f %s but the chip has %.1f; the task cannot be accommodated (§6.1)",
				c.Value, c.Name, budget[i].Value)
		}
	}

	// Whole-chip totals fit; now the plan must be placeable on the staged
	// pipeline (verifyir.go) and safe to execute on it.
	if prog.P4 == nil {
		return nil
	}
	if err := VerifyPlan(prog.P4, TofinoStageModel); err != nil {
		return err
	}
	return checkPlanSafety(prog, verify.Options{})
}

// checkPlanSafety is the one safety verdict of the compile gate: the
// path-sensitive walker (internal/verify) proves parser termination, header
// validity at every access, a single SALU access per register per pass and
// bounded recirculation, on every feasible path. A walk that hit its path
// cap proved nothing about the paths it never reached, so it is a rejection
// too — an unverified plan must not deploy.
func checkPlanSafety(prog *Program, opts verify.Options) error {
	rep := AnalyzePlan(prog, opts)
	if errs := rep.Errors(); len(errs) > 0 {
		return fmt.Errorf("compiler: symbolic verifier: %s", errs[0])
	}
	if rep.Truncated {
		return fmt.Errorf(
			"compiler: symbolic verifier: walk truncated after %d feasible paths; the plan is unverified and cannot be deployed (§6.1)",
			rep.Paths)
	}
	return nil
}
