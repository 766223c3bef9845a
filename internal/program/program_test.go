package program

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phv"
)

func kvCacheSpec(keysPerPacket int) *Spec {
	return &Spec{
		Name: "kvcache",
		Fields: []FieldSpec{
			{Name: "coflow_id", Width: phv.W32},
			{Name: "kv_op", Width: phv.W8},
		},
		Tables: []TableSpec{
			{Name: "cache", Kind: MatchExact, Entries: 32 * 1024, KeysPerPacket: keysPerPacket},
			{Name: "route", Kind: MatchLPM, Entries: 1024, KeysPerPacket: 1},
		},
		Registers: []RegisterSpec{
			{Name: "hits", Cells: 1024},
		},
		Deps: [][2]string{{"cache", "hits"}},
	}
}

func TestValidate(t *testing.T) {
	if err := kvCacheSpec(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Spec{
		{Name: "t", Tables: []TableSpec{{Name: "", Entries: 1, KeysPerPacket: 1}}},
		{Name: "t", Tables: []TableSpec{{Name: "a", Entries: 0, KeysPerPacket: 1}}},
		{Name: "t", Tables: []TableSpec{{Name: "a", Entries: 1, KeysPerPacket: 0}}},
		{Name: "t", Tables: []TableSpec{{Name: "a", Entries: 1, KeysPerPacket: 1}, {Name: "a", Entries: 1, KeysPerPacket: 1}}},
		{Name: "t", Registers: []RegisterSpec{{Name: "r", Cells: 0}}},
		{Name: "t", Deps: [][2]string{{"x", "y"}}},
		{Name: "t", Tables: []TableSpec{{Name: "a", Entries: 1, KeysPerPacket: 1}}, Deps: [][2]string{{"a", "a"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestScalarPlacementSinglePass(t *testing.T) {
	pl, err := Compile(kvCacheSpec(1), RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxPasses != 1 || pl.RecirculationOverhead != 0 {
		t.Errorf("passes=%d overhead=%v", pl.MaxPasses, pl.RecirculationOverhead)
	}
	cache := pl.Tables["cache"]
	if cache.Replication != 1 || cache.SRAMEntries != 32*1024 {
		t.Errorf("cache placement %+v", cache)
	}
	// Dependency honored: hits register strictly after cache.
	if pl.Registers["hits"] <= cache.Stage {
		t.Errorf("hits at stage %d, cache at %d — dep violated", pl.Registers["hits"], cache.Stage)
	}
	if pl.PHVBitsUsed != 40 {
		t.Errorf("PHV bits = %d, want 40", pl.PHVBitsUsed)
	}
}

func TestRMTReplicationCost(t *testing.T) {
	// Figure 3: 8 keys per packet → 8 copies on RMT (table small enough
	// that 8 copies fit in one 64K stage).
	spec := &Spec{
		Name:   "smallcache",
		Tables: []TableSpec{{Name: "cache", Kind: MatchExact, Entries: 4 * 1024, KeysPerPacket: 8}},
	}
	pl, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	cache := pl.Tables["cache"]
	if cache.Replication != 8 {
		t.Errorf("replication = %d, want 8", cache.Replication)
	}
	if cache.SRAMEntries != 8*4*1024 {
		t.Errorf("SRAM = %d, want 8×4096", cache.SRAMEntries)
	}
	if cache.Passes != 1 {
		t.Errorf("passes = %d (replication covers all keys)", cache.Passes)
	}
	// A 32K-entry table with 8 keys cannot fully replicate: the compiler
	// degrades to 2 copies (64K SRAM) and 4 passes.
	pl2, err := Compile(kvCacheSpec(8), RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	c2 := pl2.Tables["cache"]
	if c2.Replication != 2 || c2.Passes != 4 {
		t.Errorf("degraded placement = %+v, want replication 2, passes 4", c2)
	}
}

func TestADCPNoReplication(t *testing.T) {
	pl, err := Compile(kvCacheSpec(8), ADCPTarget())
	if err != nil {
		t.Fatal(err)
	}
	cache := pl.Tables["cache"]
	if cache.Replication != 1 {
		t.Errorf("ADCP replication = %d, want 1 (array interconnect)", cache.Replication)
	}
	if cache.SRAMEntries != 32*1024 {
		t.Errorf("ADCP SRAM = %d", cache.SRAMEntries)
	}
	if pl.MaxPasses != 1 {
		t.Errorf("ADCP passes = %d", pl.MaxPasses)
	}
}

func TestRMTFallsBackToRecirculation(t *testing.T) {
	// A big table (48K entries) with 4 keys/packet: 4 copies = 192K > 64K
	// stage budget. The compiler reduces replication (1 copy fits) and
	// reports 4 passes — the recirculation cost of §2.
	spec := &Spec{
		Name:   "bigcache",
		Tables: []TableSpec{{Name: "cache", Kind: MatchExact, Entries: 48 * 1024, KeysPerPacket: 4}},
	}
	pl, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	cache := pl.Tables["cache"]
	if cache.Replication != 1 {
		t.Errorf("replication = %d, want 1 (forced down by SRAM)", cache.Replication)
	}
	if cache.Passes != 4 || pl.MaxPasses != 4 {
		t.Errorf("passes = %d/%d, want 4", cache.Passes, pl.MaxPasses)
	}
	if pl.RecirculationOverhead != 0.75 {
		t.Errorf("overhead = %v, want 0.75", pl.RecirculationOverhead)
	}
	// Same program on ADCP: single pass, full table.
	pl2, err := Compile(spec, ADCPTarget())
	if err != nil {
		t.Fatal(err)
	}
	if pl2.MaxPasses != 1 || pl2.Tables["cache"].SRAMEntries != 48*1024 {
		t.Errorf("ADCP placement: %+v", pl2.Tables["cache"])
	}
}

func TestNoRecirculationTargetRejects(t *testing.T) {
	spec := &Spec{
		Name:   "wide",
		Tables: []TableSpec{{Name: "t", Kind: MatchExact, Entries: 48 * 1024, KeysPerPacket: 4}},
	}
	target := RMTTarget()
	target.AllowRecirculate = false
	_, err := Compile(spec, target)
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if !strings.Contains(inf.Reason, "passes") {
		t.Errorf("reason = %q", inf.Reason)
	}
}

func TestKeysBeyondArrayWidthNeedPasses(t *testing.T) {
	spec := &Spec{
		Name:   "vwide",
		Tables: []TableSpec{{Name: "t", Kind: MatchExact, Entries: 1024, KeysPerPacket: 32}},
	}
	pl, err := Compile(spec, ADCPTarget()) // width 16
	if err == nil {
		if pl.MaxPasses != 2 {
			t.Errorf("passes = %d, want 2", pl.MaxPasses)
		}
	} else {
		// ADCP has no recirculation: 32 keys over a 16-wide array is
		// rejected, which is also acceptable behavior.
		var inf *ErrInfeasible
		if !errors.As(err, &inf) {
			t.Fatalf("err = %v", err)
		}
	}
}

func TestArrayFieldRejectedOnRMT(t *testing.T) {
	spec := &Spec{
		Name:   "arr",
		Fields: []FieldSpec{{Name: "weights", Array: true}},
		Tables: []TableSpec{{Name: "t", Kind: MatchExact, Entries: 16, KeysPerPacket: 1}},
	}
	if _, err := Compile(spec, RMTTarget()); err == nil {
		t.Fatal("array field accepted on RMT")
	}
	pl, err := Compile(spec, ADCPTarget())
	if err != nil {
		t.Fatal(err)
	}
	if pl.ArraySlotsUsed != 1 {
		t.Errorf("array slots = %d", pl.ArraySlotsUsed)
	}
	if pl.Layout.Lookup("weights") == phv.Invalid {
		t.Error("layout missing array field")
	}
}

func TestDependencyChainTooLong(t *testing.T) {
	spec := &Spec{Name: "chain"}
	var prev string
	for i := 0; i < 14; i++ { // 14 > 12 stages
		name := string(rune('a' + i))
		spec.Tables = append(spec.Tables, TableSpec{Name: name, Kind: MatchExact, Entries: 16, KeysPerPacket: 1})
		if prev != "" {
			spec.Deps = append(spec.Deps, [2]string{prev, name})
		}
		prev = name
	}
	if _, err := Compile(spec, RMTTarget()); err == nil {
		t.Fatal("14-deep chain placed in 12 stages")
	}
}

func TestDependencyCycleRejected(t *testing.T) {
	spec := &Spec{
		Name: "cyc",
		Tables: []TableSpec{
			{Name: "a", Kind: MatchExact, Entries: 16, KeysPerPacket: 1},
			{Name: "b", Kind: MatchExact, Entries: 16, KeysPerPacket: 1},
		},
		Deps: [][2]string{{"a", "b"}, {"b", "a"}},
	}
	if _, err := Compile(spec, RMTTarget()); err == nil {
		t.Fatal("cyclic deps accepted")
	}
}

func TestSRAMSpillsAcrossStages(t *testing.T) {
	// Two 48K tables cannot share one 64K stage; second spills to stage 1.
	spec := &Spec{
		Name: "two",
		Tables: []TableSpec{
			{Name: "a", Kind: MatchExact, Entries: 48 * 1024, KeysPerPacket: 1},
			{Name: "b", Kind: MatchExact, Entries: 48 * 1024, KeysPerPacket: 1},
		},
	}
	pl, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Tables["a"].Stage == pl.Tables["b"].Stage {
		t.Error("two 48K tables placed in one 64K stage")
	}
	if pl.StagesUsed != 2 {
		t.Errorf("StagesUsed = %d", pl.StagesUsed)
	}
}

func TestTableTooBigAnywhere(t *testing.T) {
	for _, tb := range []TableSpec{
		{Name: "t", Kind: MatchExact, Entries: 1 << 20, KeysPerPacket: 1},
		// 2⁶² entries × 4 copies wraps to 0 SRAM entries if multiplied.
		{Name: "t", Kind: MatchExact, Entries: 1 << 62, KeysPerPacket: 4},
	} {
		spec := &Spec{Name: "huge", Tables: []TableSpec{tb}}
		for _, target := range []Target{RMTTarget(), ADCPTarget()} {
			var inf *ErrInfeasible
			if pl, err := Compile(spec, target); !errors.As(err, &inf) {
				t.Errorf("%d entries × %d keys on %s: err = %v, placement %+v", tb.Entries, tb.KeysPerPacket, target.Name, err, pl)
			}
		}
	}
}

func TestRegisterPlacement(t *testing.T) {
	spec := &Spec{
		Name: "regs",
		Registers: []RegisterSpec{
			{Name: "r1", Cells: 3000},
			{Name: "r2", Cells: 3000}, // does not fit with r1 in 4K stage
		},
	}
	pl, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Registers["r1"] == pl.Registers["r2"] {
		t.Error("6000 cells placed in a 4096-cell stage")
	}
	big := &Spec{Name: "r", Registers: []RegisterSpec{{Name: "r", Cells: 1 << 20}}}
	if _, err := Compile(big, RMTTarget()); err == nil {
		t.Error("oversized register accepted")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	spec := kvCacheSpec(4)
	a, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := Compile(spec, RMTTarget())
		if err != nil {
			t.Fatal(err)
		}
		if a.Tables["cache"] != b.Tables["cache"] || a.Tables["route"] != b.Tables["route"] ||
			a.Registers["hits"] != b.Registers["hits"] {
			t.Fatal("placement not deterministic")
		}
	}
}

// Property: for any key width 1..16, RMT SRAM cost is exactly
// replication × entries and ADCP cost is entries; RMT replication × passes
// covers all keys.
func TestPlacementCostProperty(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw)%16 + 1
		spec := &Spec{
			Name:   "p",
			Tables: []TableSpec{{Name: "t", Kind: MatchExact, Entries: 1024, KeysPerPacket: k}},
		}
		rmtPl, err := Compile(spec, RMTTarget())
		if err != nil {
			return false
		}
		adcpPl, err := Compile(spec, ADCPTarget())
		if err != nil {
			return false
		}
		rt := rmtPl.Tables["t"]
		at := adcpPl.Tables["t"]
		if rt.SRAMEntries != rt.Replication*1024 || at.SRAMEntries != 1024 {
			return false
		}
		return rt.Replication*rt.Passes >= k && at.Passes == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatchKindStrings(t *testing.T) {
	for _, k := range []MatchKind{MatchExact, MatchLPM, MatchTernary, MatchKind(9)} {
		if k.String() == "" {
			t.Errorf("kind %d empty", int(k))
		}
	}
}

func TestDependencyFollowsPlacedStageNotLevel(t *testing.T) {
	// cache is pushed to stage 1 by SRAM pressure (stage 0 is occupied by
	// a big filler table); its dependent register must land at stage ≥ 2
	// even though its DAG level is only 1.
	spec := &Spec{
		Name: "pushed",
		Tables: []TableSpec{
			{Name: "a_filler", Kind: MatchExact, Entries: 60 * 1024, KeysPerPacket: 1},
			{Name: "cache", Kind: MatchExact, Entries: 32 * 1024, KeysPerPacket: 1},
		},
		Registers: []RegisterSpec{{Name: "hits", Cells: 16}},
		Deps:      [][2]string{{"cache", "hits"}},
	}
	pl, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Tables["cache"].Stage != 1 {
		t.Fatalf("cache at stage %d, want 1 (SRAM push)", pl.Tables["cache"].Stage)
	}
	if pl.Registers["hits"] <= pl.Tables["cache"].Stage {
		t.Errorf("hits at stage %d, not after cache at %d", pl.Registers["hits"], pl.Tables["cache"].Stage)
	}
}
