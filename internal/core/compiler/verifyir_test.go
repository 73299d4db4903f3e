package compiler

import (
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/p4ir"
)

func TestVerifyRejectsStageOverflow(t *testing.T) {
	// Each table's exact-match SRAM is sized to nearly fill one stage, so
	// no two share a stage; one more table than there are stages cannot
	// be placed.
	p := &p4ir.Program{Name: "wide", Headers: []string{"ethernet", "ipv4"}}
	noop := p.AddAction(&p4ir.ActionDef{Name: "nop", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	perStageBlocks := TofinoStageModel.PerStage.SRAMBlocks
	// entry = 32 key + overhead + action-data bits; pick a size just under
	// one stage's SRAM.
	entryBits := 32 + 32 + 64
	size := int(perStageBlocks-1) * 16 * 1024 * 8 / entryBits
	for i := 0; i <= TofinoStageModel.Stages; i++ {
		tbl := p.AddTable(&p4ir.TableDef{
			Name:     "big_" + string(rune('a'+i)),
			Pipeline: p4ir.PipeIngress,
			Match:    p4ir.MatchExact,
			Keys:     []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
			Actions:  []string{noop.Name},
			Size:     size,
		})
		p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: tbl.Name})
	}
	err := VerifyPlan(p, TofinoStageModel)
	if err == nil || !strings.Contains(err.Error(), "stage") {
		t.Fatalf("want stage budget overflow, got %v", err)
	}
}

func TestVerifyRejectsOversizedSingleTable(t *testing.T) {
	p := &p4ir.Program{Name: "huge", Headers: []string{"ethernet", "ipv4"}}
	noop := p.AddAction(&p4ir.ActionDef{Name: "nop", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	tbl := p.AddTable(&p4ir.TableDef{
		Name:     "monster",
		Pipeline: p4ir.PipeIngress,
		Match:    p4ir.MatchExact,
		Keys:     []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
		Actions:  []string{noop.Name},
		Size:     20_000_000, // far beyond 12 stages of SRAM even spanning
	})
	p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: tbl.Name})
	err := VerifyPlan(p, TofinoStageModel)
	if err == nil || !strings.Contains(err.Error(), "alone needs") {
		t.Fatalf("want single-table span failure, got %v", err)
	}
}
