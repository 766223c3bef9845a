// Package program defines a small P4-like intermediate representation for
// switch programs — field, table, and register declarations plus ordering
// dependencies — and a resource compiler that places a program onto a
// target architecture (RMT or ADCP).
//
// The compiler is where the paper's qualitative statements become numbers:
// placing a program that matches k keys per packet onto an RMT target
// reports the table replication factor (Figure 3), the recirculation passes
// needed when k exceeds what a stage can replicate, and the PHV pressure;
// the same program placed onto an ADCP target uses array matching and
// reports none of those costs.
package program

import (
	"fmt"
	"sort"

	"repro/internal/phv"
)

// MatchKind is the match discipline of a declared table.
type MatchKind int

// Match kinds.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
)

// String returns the kind mnemonic.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	default:
		return fmt.Sprintf("match(%d)", int(k))
	}
}

// FieldSpec declares a PHV field the program needs.
type FieldSpec struct {
	Name  string
	Width phv.Width
	Array bool // needs an array container (ADCP only)
}

// TableSpec declares a logical match-action table.
type TableSpec struct {
	Name    string
	Kind    MatchKind
	Entries int // logical entries the application needs installed
	// KeysPerPacket is how many data elements of one packet must be
	// matched against this table (1 = classic scalar table).
	KeysPerPacket int
}

// RegisterSpec declares stateful register cells.
type RegisterSpec struct {
	Name  string
	Cells int
}

// Spec is a complete switch program declaration.
type Spec struct {
	Name      string
	Fields    []FieldSpec
	Tables    []TableSpec
	Registers []RegisterSpec
	// Deps lists ordering constraints: Deps[i] = [a, b] forces table or
	// register a to be placed in a strictly earlier stage than b.
	Deps [][2]string
}

// Validate checks internal consistency.
func (s *Spec) Validate() error {
	names := make(map[string]bool)
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("program %q: unnamed field", s.Name)
		}
	}
	add := func(n string) error {
		if n == "" {
			return fmt.Errorf("program %q: unnamed resource", s.Name)
		}
		if names[n] {
			return fmt.Errorf("program %q: duplicate resource %q", s.Name, n)
		}
		names[n] = true
		return nil
	}
	for _, t := range s.Tables {
		if err := add(t.Name); err != nil {
			return err
		}
		if t.Entries <= 0 {
			return fmt.Errorf("program %q: table %q has %d entries", s.Name, t.Name, t.Entries)
		}
		if t.KeysPerPacket < 1 {
			return fmt.Errorf("program %q: table %q matches %d keys", s.Name, t.Name, t.KeysPerPacket)
		}
	}
	for _, r := range s.Registers {
		if err := add(r.Name); err != nil {
			return err
		}
		if r.Cells <= 0 {
			return fmt.Errorf("program %q: register %q has %d cells", s.Name, r.Name, r.Cells)
		}
	}
	for _, d := range s.Deps {
		for _, n := range []string{d[0], d[1]} {
			if !names[n] {
				return fmt.Errorf("program %q: dependency references unknown %q", s.Name, n)
			}
		}
		if d[0] == d[1] {
			return fmt.Errorf("program %q: self-dependency on %q", s.Name, d[0])
		}
	}
	return nil
}

// Target describes the architecture a program is placed onto.
type Target struct {
	Name             string
	Stages           int
	MAUsPerStage     int
	EntriesPerStage  int
	RegisterCells    int // per stage
	ArrayWidth       int // 0 = scalar only (RMT)
	PHVBudget        phv.Budget
	AllowRecirculate bool
}

// RMTTarget returns a Tofino-class RMT target.
func RMTTarget() Target {
	return Target{
		Name:             "rmt",
		Stages:           12,
		MAUsPerStage:     16,
		EntriesPerStage:  64 * 1024,
		RegisterCells:    4 * 1024,
		ArrayWidth:       0,
		PHVBudget:        phv.DefaultBudget,
		AllowRecirculate: true,
	}
}

// ADCPTarget returns the ADCP central-pipeline target: same geometry, array
// matching up to the stage's MAU count, no recirculation (none needed).
func ADCPTarget() Target {
	return Target{
		Name:            "adcp",
		Stages:          12,
		MAUsPerStage:    16,
		EntriesPerStage: 64 * 1024,
		RegisterCells:   4 * 1024,
		ArrayWidth:      16,
		PHVBudget:       phv.ADCPBudget,
	}
}

// TablePlacement records where one table landed and what it cost.
type TablePlacement struct {
	Stage       int
	Replication int // SRAM copies (scalar targets with multi-key matching)
	SRAMEntries int // total entries consumed (Entries × Replication)
	Passes      int // pipeline traversals to cover all keys of one packet
}

// Placement is the compiled resource assignment of a program on a target.
type Placement struct {
	Program string
	Target  string
	// Tables maps table name → placement.
	Tables map[string]TablePlacement
	// Registers maps register name → stage.
	Registers map[string]int
	// StagesUsed is the highest occupied stage + 1.
	StagesUsed int
	// PHVBitsUsed is the scalar PHV pressure.
	PHVBitsUsed int
	// ArraySlotsUsed counts array containers consumed.
	ArraySlotsUsed int
	// MaxPasses is the worst-case traversals one packet needs (1 = single
	// pass; >1 means recirculation on RMT).
	MaxPasses int
	// RecirculationOverhead = (MaxPasses-1)/MaxPasses: fraction of
	// pipeline bandwidth burned by extra passes.
	RecirculationOverhead float64
	// Layout is the PHV layout built during placement, usable to
	// instantiate pipelines.
	Layout *phv.Layout
}

// ErrInfeasible wraps placement failures with the reason.
type ErrInfeasible struct {
	Program string
	Target  string
	Reason  string
}

// Error implements error.
func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("program %q infeasible on %s: %s", e.Program, e.Target, e.Reason)
}

// Compile places spec onto target, returning the placement or an
// *ErrInfeasible explaining what does not fit.
func Compile(spec *Spec, target Target) (*Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	infeasible := func(format string, args ...any) error {
		return &ErrInfeasible{Program: spec.Name, Target: target.Name, Reason: fmt.Sprintf(format, args...)}
	}

	// PHV allocation.
	layout := phv.NewLayout(target.PHVBudget)
	arraySlots := 0
	for _, f := range spec.Fields {
		if f.Array {
			if _, err := layout.AllocArray(f.Name); err != nil {
				return nil, infeasible("array field %q: %v (scalar-only PHV — restructure per Figure 3 or choose ADCP)", f.Name, err)
			}
			arraySlots++
			continue
		}
		if _, err := layout.Alloc(f.Name, f.Width); err != nil {
			return nil, infeasible("field %q: %v", f.Name, err)
		}
	}

	// Stage ordering: longest-path levels from the dependency DAG.
	level, err := dagLevels(spec)
	if err != nil {
		return nil, infeasible("%v", err)
	}

	pl := &Placement{
		Program:   spec.Name,
		Target:    target.Name,
		Tables:    make(map[string]TablePlacement),
		Registers: make(map[string]int),
		MaxPasses: 1,
		Layout:    layout,
	}

	// Per-stage budgets.
	sramLeft := make([]int, target.Stages)
	regLeft := make([]int, target.Stages)
	for i := range sramLeft {
		sramLeft[i] = target.EntriesPerStage
		regLeft[i] = target.RegisterCells
	}

	// Place tables in level order, then registers. Sort names within a
	// level for determinism.
	type item struct {
		name  string
		level int
		table *TableSpec
		reg   *RegisterSpec
	}
	var items []item
	for i := range spec.Tables {
		t := &spec.Tables[i]
		items = append(items, item{name: t.Name, level: level[t.Name], table: t})
	}
	for i := range spec.Registers {
		r := &spec.Registers[i]
		items = append(items, item{name: r.Name, level: level[r.Name], reg: r})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].level != items[j].level {
			return items[i].level < items[j].level
		}
		return items[i].name < items[j].name
	})

	// preds[b] lists resources that must be placed strictly before b; a
	// dependent's earliest stage follows its predecessors' PLACED stages
	// (SRAM pressure may have pushed them past their DAG level).
	preds := make(map[string][]string)
	for _, d := range spec.Deps {
		preds[d[1]] = append(preds[d[1]], d[0])
	}
	placedStage := make(map[string]int)

	for _, it := range items {
		minStage := it.level
		for _, pred := range preds[it.name] {
			if s, ok := placedStage[pred]; ok && s+1 > minStage {
				minStage = s + 1
			}
		}
		if minStage >= target.Stages {
			return nil, infeasible("%q needs stage ≥ %d of %d (dependency chain too long)", it.name, minStage, target.Stages)
		}
		if it.table != nil {
			tp, stage, err := placeTable(it.table, target, sramLeft, minStage)
			if err != nil {
				return nil, infeasible("%v", err)
			}
			tp.Stage = stage
			pl.Tables[it.name] = tp
			placedStage[it.name] = stage
			if tp.Passes > pl.MaxPasses {
				pl.MaxPasses = tp.Passes
			}
			if stage+1 > pl.StagesUsed {
				pl.StagesUsed = stage + 1
			}
			continue
		}
		placed := false
		for s := minStage; s < target.Stages; s++ {
			if regLeft[s] >= it.reg.Cells {
				regLeft[s] -= it.reg.Cells
				pl.Registers[it.name] = s
				placedStage[it.name] = s
				if s+1 > pl.StagesUsed {
					pl.StagesUsed = s + 1
				}
				placed = true
				break
			}
		}
		if !placed {
			return nil, infeasible("register %q (%d cells) does not fit in any stage", it.name, it.reg.Cells)
		}
	}

	if pl.MaxPasses > 1 && !target.AllowRecirculate {
		return nil, infeasible("needs %d passes but target has no recirculation", pl.MaxPasses)
	}
	pl.PHVBitsUsed = layout.UsedBits()
	pl.ArraySlotsUsed = arraySlots
	pl.RecirculationOverhead = float64(pl.MaxPasses-1) / float64(pl.MaxPasses)
	return pl, nil
}

// placeTable finds a stage for the table and computes its replication and
// pass count on the target.
func placeTable(t *TableSpec, target Target, sramLeft []int, minStage int) (TablePlacement, int, error) {
	k := t.KeysPerPacket
	// ADCP §3.2: one shared table, k ≤ ArrayWidth keys per traversal. RMT
	// Figure 3: k keys need k copies, bounded by the MAU count; keys beyond
	// the replication need extra passes, so a scalar target retries with
	// fewer copies before giving up.
	replication := 1
	if target.ArrayWidth == 0 {
		replication = min(k, target.MAUsPerStage)
	}
	for rep := replication; rep >= 1; rep-- {
		perPass := rep
		if target.ArrayWidth > 0 {
			perPass = target.ArrayWidth
		}
		for s := minStage; s < len(sramLeft); s++ {
			// Entries ≤ left/rep rather than Entries×rep ≤ left: the product
			// of a large declared table wraps.
			if t.Entries <= sramLeft[s]/rep {
				need := t.Entries * rep
				sramLeft[s] -= need
				return TablePlacement{Replication: rep, SRAMEntries: need, Passes: (k-1)/perPass + 1}, s, nil
			}
		}
	}
	return TablePlacement{}, 0, fmt.Errorf("table %q (%d entries × %d copies) does not fit in any stage", t.Name, t.Entries, replication)
}

// dagLevels computes the longest-path level of every resource from Deps.
func dagLevels(spec *Spec) (map[string]int, error) {
	adj := make(map[string][]string)
	indeg := make(map[string]int)
	names := make([]string, 0, len(spec.Tables)+len(spec.Registers))
	for _, t := range spec.Tables {
		indeg[t.Name] = 0
		names = append(names, t.Name)
	}
	for _, r := range spec.Registers {
		indeg[r.Name] = 0
		names = append(names, r.Name)
	}
	for _, d := range spec.Deps {
		adj[d[0]] = append(adj[d[0]], d[1])
		indeg[d[1]]++
	}
	// Kahn with deterministic order.
	level := make(map[string]int, len(names))
	queue := make([]string, 0, len(names))
	for _, n := range names {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	sort.Strings(queue)
	done := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		done++
		for _, m := range adj[n] {
			if level[n]+1 > level[m] {
				level[m] = level[n] + 1
			}
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
				sort.Strings(queue)
			}
		}
	}
	if done != len(names) {
		return nil, fmt.Errorf("dependency cycle among resources")
	}
	return level, nil
}
