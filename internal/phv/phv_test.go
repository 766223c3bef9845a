package phv

import (
	"testing"
	"testing/quick"
)

func TestAllocAndLookup(t *testing.T) {
	l := NewLayout(DefaultBudget)
	id8, err := l.Alloc("flags", W8)
	if err != nil {
		t.Fatal(err)
	}
	id16, err := l.Alloc("port", W16)
	if err != nil {
		t.Fatal(err)
	}
	id32, err := l.Alloc("coflow", W32)
	if err != nil {
		t.Fatal(err)
	}
	if l.Lookup("port") != id16 || l.Lookup("flags") != id8 || l.Lookup("coflow") != id32 {
		t.Error("Lookup mismatch")
	}
	if l.Lookup("ghost") != Invalid {
		t.Error("Lookup of missing field != Invalid")
	}
	if l.NumFields() != 3 {
		t.Errorf("NumFields = %d", l.NumFields())
	}
	if l.UsedBits() != 8+16+32 {
		t.Errorf("UsedBits = %d", l.UsedBits())
	}
	if l.NameOf(id16) != "port" {
		t.Error("field metadata wrong")
	}
}

func TestAllocDuplicate(t *testing.T) {
	l := NewLayout(DefaultBudget)
	if _, err := l.Alloc("x", W8); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Alloc("x", W16); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := l.AllocArray("x"); err == nil {
		t.Error("duplicate name accepted as array")
	}
}

func TestAllocBudgetExhaustion(t *testing.T) {
	l := NewLayout(Budget{N8: 2})
	for i := 0; i < 2; i++ {
		if _, err := l.Alloc(string(rune('a'+i)), W8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Alloc("overflow", W8); err == nil {
		t.Error("exceeded budget accepted")
	}
	if _, err := l.Alloc("w16", W16); err == nil {
		t.Error("zero 16-bit budget accepted")
	}
}

func TestAllocBadWidth(t *testing.T) {
	l := NewLayout(DefaultBudget)
	if _, err := l.Alloc("x", Width(12)); err == nil {
		t.Error("bad width accepted")
	}
}

func TestArrayAllocRMTvsADCP(t *testing.T) {
	rmt := NewLayout(DefaultBudget)
	if _, err := rmt.AllocArray("weights"); err == nil {
		t.Error("RMT budget allocated an array container (limitation ② should forbid this)")
	}
	adcp := NewLayout(ADCPBudget)
	id, err := adcp.AllocArray("weights")
	if err != nil {
		t.Fatal(err)
	}
	if !adcp.IsArray(id) {
		t.Error("IsArray = false")
	}
	if adcp.ArrayWidth() != 16 {
		t.Errorf("ArrayWidth = %d", adcp.ArrayWidth())
	}
	for i := 1; i < ADCPBudget.ArraySlots; i++ {
		if _, err := adcp.AllocArray(string(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := adcp.AllocArray("one-too-many"); err == nil {
		t.Error("array budget overflow accepted")
	}
}

func TestVectorScalarMasking(t *testing.T) {
	l := NewLayout(DefaultBudget)
	id8, _ := l.Alloc("b", W8)
	id16, _ := l.Alloc("s", W16)
	id32, _ := l.Alloc("w", W32)
	v := NewVector(l)
	v.Set(id8, 0x1FF)
	v.Set(id16, 0x1FFFF)
	v.Set(id32, 0x1FFFFFFFF)
	if v.Get(id8) != 0xFF {
		t.Errorf("8-bit masking: %x", v.Get(id8))
	}
	if v.Get(id16) != 0xFFFF {
		t.Errorf("16-bit masking: %x", v.Get(id16))
	}
	if v.Get(id32) != 0xFFFFFFFF {
		t.Errorf("32-bit masking: %x", v.Get(id32))
	}
}

func TestVectorValidityAndReset(t *testing.T) {
	l := NewLayout(DefaultBudget)
	id, _ := l.Alloc("x", W32)
	v := NewVector(l)
	if v.Valid(id) {
		t.Error("fresh vector has valid field")
	}
	v.Set(id, 7)
	if !v.Valid(id) || v.Get(id) != 7 {
		t.Error("Set did not take")
	}
	v.Reset()
	if v.Valid(id) || v.Get(id) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestVectorArray(t *testing.T) {
	l := NewLayout(ADCPBudget)
	id, _ := l.AllocArray("vals")
	v := NewVector(l)
	v.SetArray(id, []uint32{1, 2, 3})
	a := v.Array(id)
	if len(a) != 3 || a[0] != 1 || a[2] != 3 {
		t.Fatalf("Array = %v", a)
	}
	a[1] = 99 // aliasing is intended
	if v.Array(id)[1] != 99 {
		t.Error("Array does not alias storage")
	}
	// Truncation to array width.
	long := make([]uint32, 100)
	v.SetArray(id, long)
	if len(v.Array(id)) != 16 {
		t.Errorf("len = %d, want 16 (truncated)", len(v.Array(id)))
	}
}

func TestVectorSetPanicsOnKindMismatch(t *testing.T) {
	l := NewLayout(ADCPBudget)
	sid, _ := l.Alloc("s", W32)
	aid, _ := l.AllocArray("a")
	v := NewVector(l)
	mustPanic(t, "Set on array", func() { v.Set(aid, 1) })
	mustPanic(t, "SetArray on scalar", func() { v.SetArray(sid, []uint32{1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestSnapshot(t *testing.T) {
	l := NewLayout(ADCPBudget)
	b, _ := l.Alloc("beta", W16)
	a, _ := l.Alloc("alpha", W32)
	arr, _ := l.AllocArray("arr")
	v := NewVector(l)
	v.Set(a, 1)
	v.Set(b, 2)
	v.SetArray(arr, []uint32{9})
	snap := v.Snapshot()
	if len(snap) != 2 || snap["alpha"] != 1 || snap["beta"] != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestFieldsOrder(t *testing.T) {
	l := NewLayout(DefaultBudget)
	l.Alloc("one", W8)
	l.Alloc("two", W16)
	got := l.Fields()
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("Fields = %v", got)
	}
}

func TestPoolReuse(t *testing.T) {
	l := NewLayout(DefaultBudget)
	id, _ := l.Alloc("x", W32)
	p := NewPool(l)
	v1 := p.Get()
	v1.Set(id, 42)
	p.Put(v1)
	v2 := p.Get()
	if v2 != v1 {
		t.Error("pool did not reuse vector")
	}
	if v2.Valid(id) {
		t.Error("pooled vector not reset")
	}
	p.Put(nil) // no-op
	v3 := p.Get()
	if v3 == nil {
		t.Error("Get after Put(nil) returned nil")
	}
}

// Property: Set/Get round-trips modulo masking for any value.
func TestSetGetProperty(t *testing.T) {
	l := NewLayout(DefaultBudget)
	id, _ := l.Alloc("x", W16)
	v := NewVector(l)
	f := func(val uint64) bool {
		v.Set(id, val)
		return v.Get(id) == val&0xFFFF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: array round-trips for any content up to the width.
func TestArrayRoundTripProperty(t *testing.T) {
	l := NewLayout(ADCPBudget)
	id, _ := l.AllocArray("a")
	v := NewVector(l)
	f := func(vals []uint32) bool {
		v.SetArray(id, vals)
		got := v.Array(id)
		n := len(vals)
		if n > 16 {
			n = 16
		}
		if len(got) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBudgetBits(t *testing.T) {
	if got := DefaultBudget.Bits(); got != 4096 {
		t.Errorf("DefaultBudget.Bits = %d, want 4096 (Tofino-class)", got)
	}
}

func BenchmarkPoolGetPut(b *testing.B) {
	l := NewLayout(ADCPBudget)
	l.Alloc("x", W32)
	p := NewPool(l)
	p.Put(p.Get())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := p.Get()
		p.Put(v)
	}
}

// Ablation (DESIGN.md decision 2): pooled vectors vs fresh allocation per
// packet. Compare with BenchmarkPoolGetPut.
func BenchmarkVectorFreshAlloc(b *testing.B) {
	l := NewLayout(ADCPBudget)
	l.Alloc("x", W32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := NewVector(l)
		_ = v
	}
}
