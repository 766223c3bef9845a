package pipeline

import (
	"fmt"

	"repro/internal/phv"
)

// StandardLayout allocates a PHV layout with the fields the standard parse
// graph extracts (base header plus every application header's fixed part),
// fitting comfortably in any realistic budget. Programs that need more
// fields allocate their own layout via the program compiler.
func StandardLayout(b phv.Budget) *phv.Layout {
	l := phv.NewLayout(b)
	fields := []struct {
		name string
		w    phv.Width
	}{
		{"dst_port", phv.W16}, {"src_port", phv.W16},
		{"proto", phv.W8}, {"flags", phv.W8},
		{"coflow_id", phv.W32}, {"flow_id", phv.W32},
		{"seq", phv.W32}, {"length", phv.W16},
		{"ml_base", phv.W32}, {"ml_worker", phv.W16}, {"ml_count", phv.W16},
		{"kv_op", phv.W8}, {"kv_count", phv.W16},
		{"db_query", phv.W16}, {"db_stage", phv.W8}, {"db_count", phv.W16},
		{"graph_round", phv.W16}, {"graph_count", phv.W16},
		{"group_id", phv.W32}, {"group_chunk", phv.W32},
		{"group_total", phv.W32}, {"group_paylen", phv.W16},
	}
	for _, f := range fields {
		if _, err := l.Alloc(f.name, f.w); err != nil {
			// The standard fields fit in every budget this repo defines;
			// failing here is a programming error, not a runtime condition.
			panic(fmt.Sprintf("pipeline: standard layout: %v", err))
		}
	}
	return l
}

// LayoutOf picks the PHV layout for a switch: the first program that
// carries one wins. A PHV holds what its program reads, so a switch whose
// programs carry none gets an empty one: its parser checks, extracts nothing.
func LayoutOf(a, b *Program, budget phv.Budget) *phv.Layout {
	if a != nil && a.Layout != nil {
		return a.Layout
	}
	if b != nil && b.Layout != nil {
		return b.Layout
	}
	return phv.NewLayout(budget)
}
