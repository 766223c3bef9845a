package mat

import (
	"testing"
	"testing/quick"
)

func TestScalarReplicationCapacity(t *testing.T) {
	// Figure 3: k keys/packet forces k table copies, effective size ÷ k.
	s := NewStageMemory(ModeScalar, StageMAUs, 64*1024, 1)
	if s.EffectiveCapacity() != 64*1024 {
		t.Fatalf("unreplicated capacity = %d", s.EffectiveCapacity())
	}
	for _, k := range []int{2, 4, 8, 16} {
		if err := s.ConfigureReplication(k); err != nil {
			t.Fatal(err)
		}
		want := 64 * 1024 / k
		if got := s.EffectiveCapacity(); got != want {
			t.Errorf("replication %d: effective capacity %d, want %d", k, got, want)
		}
		if s.Parallelism() != k {
			t.Errorf("replication %d: parallelism %d", k, s.Parallelism())
		}
	}
}

func TestScalarReplicationBounds(t *testing.T) {
	s := NewStageMemory(ModeScalar, 16, 1024, 1)
	if err := s.ConfigureReplication(0); err == nil {
		t.Error("replication 0 accepted")
	}
	if err := s.ConfigureReplication(17); err == nil {
		t.Error("replication > MAUs accepted")
	}
	tiny := NewStageMemory(ModeScalar, 16, 8, 1)
	if err := tiny.ConfigureReplication(16); err == nil {
		t.Error("zero-entries-per-copy replication accepted")
	}
	arr := NewStageMemory(ModeArray, 16, 1024, 1)
	if err := arr.ConfigureReplication(2); err == nil {
		t.Error("replication accepted in array mode")
	}
}

func TestArrayModeFullCapacityAndParallelism(t *testing.T) {
	s := NewStageMemory(ModeArray, StageMAUs, 64*1024, 1)
	if s.EffectiveCapacity() != 64*1024 {
		t.Errorf("array capacity = %d, want full SRAM", s.EffectiveCapacity())
	}
	if s.Parallelism() != 16 {
		t.Errorf("array parallelism = %d, want 16", s.Parallelism())
	}
	if s.Replication() != 1 {
		t.Errorf("Replication = %d", s.Replication())
	}
}

func TestMultiClockParallelism(t *testing.T) {
	s := NewStageMemory(ModeMultiClock, 16, 1024, 8)
	if s.Parallelism() != 8 {
		t.Errorf("parallelism = %d, want clock multiple 8", s.Parallelism())
	}
	if s.MemoryClockMultiple() != 8 {
		t.Errorf("MemoryClockMultiple = %d", s.MemoryClockMultiple())
	}
	arr := NewStageMemory(ModeArray, 16, 1024, 8)
	if arr.MemoryClockMultiple() != 1 {
		t.Error("array mode should not need a faster memory clock")
	}
}

func TestInstallConsumesSRAMPerReplica(t *testing.T) {
	s := NewStageMemory(ModeScalar, 16, 1024, 1)
	s.ConfigureReplication(4)
	for k := uint64(0); k < 10; k++ {
		if err := s.Install(k, Result{ActionID: int(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Installed() != 10 {
		t.Errorf("Installed = %d", s.Installed())
	}
	if s.SRAMUsed() != 40 {
		t.Errorf("SRAMUsed = %d, want 40 (10 entries × 4 copies)", s.SRAMUsed())
	}
	a := NewStageMemory(ModeArray, 16, 1024, 1)
	for k := uint64(0); k < 10; k++ {
		a.Install(k, Result{})
	}
	if a.SRAMUsed() != 10 {
		t.Errorf("array SRAMUsed = %d, want 10 (no replication)", a.SRAMUsed())
	}
}

func TestInstallOverflowAfterReplication(t *testing.T) {
	s := NewStageMemory(ModeScalar, 16, 16, 1)
	s.ConfigureReplication(4) // 4 entries per copy
	for k := uint64(0); k < 4; k++ {
		if err := s.Install(k, Result{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Install(99, Result{}); err == nil {
		t.Error("insert beyond per-copy capacity accepted")
	}
}

func TestLookupBatchScalarVsArray(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	results := make([]Result, 8)
	hits := make([]bool, 8)

	s := NewStageMemory(ModeScalar, 16, 1024, 1) // replication 1 ⇒ parallelism 1
	s.Install(1, Result{ActionID: 1})
	if _, err := s.LookupBatch(keys, results, hits); err != ErrBatchTooWide {
		t.Errorf("scalar wide batch err = %v, want ErrBatchTooWide", err)
	}
	if cyc, err := s.LookupBatch(keys[:1], results, hits); err != nil || cyc != 1 {
		t.Errorf("scalar single: cyc=%d err=%v", cyc, err)
	}
	if !hits[0] || results[0].ActionID != 1 {
		t.Error("scalar single lookup wrong")
	}

	a := NewStageMemory(ModeArray, 16, 1024, 1)
	for k := uint64(1); k <= 8; k++ {
		a.Install(k, Result{ActionID: int(k) * 10})
	}
	cyc, err := a.LookupBatch(keys, results, hits)
	if err != nil || cyc != 1 {
		t.Fatalf("array batch: cyc=%d err=%v", cyc, err)
	}
	for i, k := range keys {
		if !hits[i] || results[i].ActionID != int(k)*10 {
			t.Errorf("array batch key %d: %+v/%v", k, results[i], hits[i])
		}
	}
}

func TestLookupBatchScalarUsesReplicas(t *testing.T) {
	s := NewStageMemory(ModeScalar, 16, 1024, 1)
	s.ConfigureReplication(4)
	for k := uint64(1); k <= 4; k++ {
		s.Install(k, Result{ActionID: int(k)})
	}
	keys := []uint64{4, 3, 2, 1}
	results := make([]Result, 4)
	hits := make([]bool, 4)
	cyc, err := s.LookupBatch(keys, results, hits)
	if err != nil || cyc != 1 {
		t.Fatalf("cyc=%d err=%v", cyc, err)
	}
	for i, k := range keys {
		if !hits[i] || results[i].ActionID != int(k) {
			t.Errorf("replica %d missed key %d", i, k)
		}
	}
}

func TestStageCounters(t *testing.T) {
	s := NewStageMemory(ModeArray, 16, 64, 1)
	s.Install(1, Result{})
	s.Lookup(1)
	s.Lookup(2)
	keys := []uint64{1, 2, 3, 4}
	s.LookupBatch(keys, make([]Result, 4), make([]bool, 4))
	if s.Lookups() != 6 {
		t.Errorf("Lookups = %d, want 6", s.Lookups())
	}
	if s.Cycles() != 3 {
		t.Errorf("Cycles = %d, want 3 (2 singles + 1 batch)", s.Cycles())
	}
}

func TestNewStageMemoryPanicsOnBadGeometry(t *testing.T) {
	mustPanicMat(t, func() { NewStageMemory(ModeScalar, 0, 10, 1) })
	mustPanicMat(t, func() { NewStageMemory(ModeScalar, 16, 0, 1) })
}

func TestModeStrings(t *testing.T) {
	if ModeScalar.String() != "scalar" || ModeArray.String() != "array" || ModeMultiClock.String() != "multiclock" {
		t.Error("mode strings wrong")
	}
	if MemoryMode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}

// Property: for any replication factor k and capacity c, SRAM consumed per
// logical entry is exactly k, and effective capacity is c/k — the Figure 3
// relationship.
func TestReplicationSRAMProperty(t *testing.T) {
	f := func(kRaw, entries uint8) bool {
		k := int(kRaw)%16 + 1
		s := NewStageMemory(ModeScalar, 16, 64*1024, 1)
		if err := s.ConfigureReplication(k); err != nil {
			return false
		}
		n := int(entries)%100 + 1
		for i := 0; i < n; i++ {
			if err := s.Install(uint64(i), Result{}); err != nil {
				return false
			}
		}
		return s.SRAMUsed() == n*k && s.EffectiveCapacity() == 64*1024/k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRegisterOps(t *testing.T) {
	f := NewRegisterFile(8)
	if f.Size() != 8 {
		t.Fatalf("Size = %d", f.Size())
	}
	if got := f.Execute(RegWrite, 0, 5); got != 0 {
		t.Errorf("write returned %d, want old value 0", got)
	}
	if got := f.Execute(RegAdd, 0, 3); got != 8 {
		t.Errorf("add returned %d, want 8", got)
	}
	if got := f.Execute(RegRead, 0, 0); got != 8 {
		t.Errorf("read = %d", got)
	}
	if got := f.Execute(RegMax, 0, 100); got != 100 {
		t.Errorf("max = %d", got)
	}
	if got := f.Execute(RegMax, 0, 1); got != 100 {
		t.Errorf("max with smaller arg = %d", got)
	}
	if got := f.Execute(RegMin, 0, 7); got != 7 {
		t.Errorf("min = %d", got)
	}
	// CAS takes only when cell is zero.
	if got := f.Execute(RegCAS, 1, 42); got != 0 {
		t.Errorf("CAS on zero returned %d", got)
	}
	if got := f.Execute(RegCAS, 1, 99); got != 42 {
		t.Errorf("CAS on set cell returned %d, want 42", got)
	}
	if f.Peek(1) != 42 {
		t.Errorf("CAS overwrote: %d", f.Peek(1))
	}
	if f.Ops() != 8 {
		t.Errorf("Ops = %d, want 8", f.Ops())
	}
	f.Reset()
	if f.Peek(0) != 0 || f.Peek(1) != 0 {
		t.Error("Reset did not zero")
	}
}

// An untouched file holds no cells yet reads as all zeroes, keeps its
// bounds, and takes a checkpoint; cells appear with the first RMW.
func TestRegisterFileUntouched(t *testing.T) {
	f := NewRegisterFile(8)
	if f.cells != nil {
		t.Fatal("fresh file holds cells")
	}
	if f.Size() != 8 || f.Ops() != 0 || f.Peek(0) != 0 || f.Peek(7) != 0 {
		t.Errorf("Size %d, Ops %d, Peek(0) %d, Peek(7) %d", f.Size(), f.Ops(), f.Peek(0), f.Peek(7))
	}
	snap := f.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("Snapshot has %d cells", len(snap))
	}
	for i, v := range snap {
		if v != 0 {
			t.Errorf("Snapshot[%d] = %d", i, v)
		}
	}
	f.Reset()
	if f.cells != nil {
		t.Error("Peek, Snapshot or Reset made the cells")
	}
	for name, fn := range map[string]func(){
		"Peek(-1)":    func() { f.Peek(-1) },
		"Peek(8)":     func() { f.Peek(8) },
		"Execute(-1)": func() { f.Execute(RegAdd, -1, 1) },
		"Execute(8)":  func() { f.Execute(RegAdd, 8, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an untouched file did not panic", name)
				}
			}()
			fn()
		}()
	}
	if err := f.Restore(make([]uint64, 7), 0); err == nil {
		t.Error("Restore accepted 7 cells into an 8-cell file")
	}
	if err := f.Restore([]uint64{0, 1, 2, 3, 4, 5, 6, 7}, 9); err != nil {
		t.Fatal(err)
	}
	if f.Peek(5) != 5 || f.Ops() != 9 {
		t.Errorf("after Restore: Peek(5) %d, Ops %d", f.Peek(5), f.Ops())
	}
	g := NewRegisterFile(8)
	if got := g.Execute(RegAdd, 3, 4); got != 4 || g.Peek(3) != 4 || g.Peek(2) != 0 || g.Ops() != 1 {
		t.Errorf("first RMW: got %d, Peek(3) %d, Peek(2) %d, Ops %d", got, g.Peek(3), g.Peek(2), g.Ops())
	}
}

func TestRegisterOpStrings(t *testing.T) {
	ops := []RegisterOp{RegRead, RegWrite, RegAdd, RegMax, RegMin, RegCAS, RegisterOp(99)}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty string for op %d", int(op))
		}
	}
}

// Property: RegAdd accumulates exactly like integer addition per cell.
func TestRegisterAddProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		reg := NewRegisterFile(1)
		var want uint64
		for _, v := range vals {
			want += uint64(v)
			reg.Execute(RegAdd, 0, uint64(v))
		}
		return reg.Peek(0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookupBatchArray16(b *testing.B) {
	s := NewStageMemory(ModeArray, 16, 64*1024, 1)
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
		s.Install(uint64(i), Result{ActionID: i})
	}
	results := make([]Result, 16)
	hits := make([]bool, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LookupBatch(keys, results, hits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupScalar16Sequential(b *testing.B) {
	// The RMT way to process 16 keys: 16 separate single lookups
	// (i.e. 16 recirculated packets). Compare with BenchmarkLookupBatchArray16.
	s := NewStageMemory(ModeScalar, 16, 64*1024, 1)
	for i := 0; i < 16; i++ {
		s.Install(uint64(i), Result{ActionID: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := uint64(0); k < 16; k++ {
			s.Lookup(k)
		}
	}
}

// Ablation (DESIGN.md decision 3): the three stage-memory organizations on
// the same 16-key batch.
func BenchmarkStageModes16Keys(b *testing.B) {
	modes := []struct {
		name string
		mem  *StageMemory
	}{
		{"scalar-replicated", func() *StageMemory {
			m := NewStageMemory(ModeScalar, 16, 64*1024, 1)
			m.ConfigureReplication(16)
			return m
		}()},
		{"array-interconnect", NewStageMemory(ModeArray, 16, 64*1024, 1)},
		{"multi-clock", NewStageMemory(ModeMultiClock, 16, 64*1024, 16)},
	}
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for _, m := range modes {
		for _, k := range keys {
			m.mem.Install(k, Result{})
		}
		results := make([]Result, 16)
		hits := make([]bool, 16)
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.mem.LookupBatch(keys, results, hits); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.mem.EffectiveCapacity()), "effective-entries")
			b.ReportMetric(float64(m.mem.MemoryClockMultiple()), "mem-clock-mult")
		})
	}
}

// A scalar stage's modelled cost for k table copies, pinned for k ∈ {1, 2,
// 8, 16} over 100 SRAM entries with the values a stage of k physical tables
// gave: the insert that overflows, the SRAM charged, and the batch width
// that is one too many. One table stands behind the k copies now; what the
// model charges for them must not move.
func TestScalarReplicaAccounting(t *testing.T) {
	for _, tc := range []struct{ k, fits, sram int }{
		{1, 100, 100}, {2, 50, 100}, {8, 12, 96}, {16, 6, 96},
	} {
		s := NewStageMemory(ModeScalar, StageMAUs, 100, 1)
		if err := s.ConfigureReplication(tc.k); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.fits; i++ {
			if err := s.Install(uint64(i), Result{Params: [2]uint64{uint64(i) + 1, 0}}); err != nil {
				t.Fatalf("k=%d: install %d of %d: %v", tc.k, i, tc.fits, err)
			}
		}
		if err := s.Install(uint64(tc.fits), Result{}); err != ErrTableFull {
			t.Errorf("k=%d: install past %d entries = %v, want ErrTableFull", tc.k, tc.fits, err)
		}
		if err := s.Install(0, Result{Params: [2]uint64{1, 0}}); err != nil {
			t.Errorf("k=%d: overwrite in a full table: %v", tc.k, err)
		}
		if s.Installed() != tc.fits || s.SRAMUsed() != tc.sram || s.EffectiveCapacity() != tc.fits || s.Parallelism() != tc.k {
			t.Errorf("k=%d: installed %d sram %d capacity %d parallelism %d, want %d %d %d %d", tc.k,
				s.Installed(), s.SRAMUsed(), s.EffectiveCapacity(), s.Parallelism(), tc.fits, tc.sram, tc.fits, tc.k)
		}
		keys := make([]uint64, tc.k+1)
		for i := range keys {
			keys[i] = uint64(i % tc.fits)
		}
		results, hits := make([]Result, len(keys)), make([]bool, len(keys))
		if _, err := s.LookupBatch(keys, results, hits); err != ErrBatchTooWide {
			t.Errorf("k=%d: batch of %d = %v, want ErrBatchTooWide", tc.k, len(keys), err)
		}
		if cyc, err := s.LookupBatch(keys[:tc.k], results, hits); err != nil || cyc != 1 {
			t.Fatalf("k=%d: batch of %d = %d cycles, %v", tc.k, tc.k, cyc, err)
		}
		for i := 0; i < tc.k; i++ {
			if !hits[i] || results[i].Params[0] != keys[i]+1 {
				t.Errorf("k=%d: MAU %d looked up %d: hit %v value %d", tc.k, i, keys[i], hits[i], results[i].Params[0])
			}
		}
		if s.Lookups() != uint64(tc.k) || s.Cycles() != 1 {
			t.Errorf("k=%d: %d lookups in %d cycles, want %d in 1", tc.k, s.Lookups(), s.Cycles(), tc.k)
		}
	}
}
