package mat

import (
	"testing"
	"testing/quick"
)

func TestExactTableBasics(t *testing.T) {
	tb := NewExactTable(4)
	if tb.Capacity() != 4 || tb.Len() != 0 {
		t.Fatal("fresh table geometry wrong")
	}
	if err := tb.Insert(1, Result{ActionID: 10}); err != nil {
		t.Fatal(err)
	}
	r, ok := tb.Lookup(1)
	if !ok || r.ActionID != 10 {
		t.Errorf("Lookup(1) = %+v, %v", r, ok)
	}
	if _, ok := tb.Lookup(2); ok {
		t.Error("missing key hit")
	}
	tb.Delete(1)
	if _, ok := tb.Lookup(1); ok {
		t.Error("deleted key still hits")
	}
	tb.Delete(99) // no-op
}

func TestExactTableCapacity(t *testing.T) {
	tb := NewExactTable(2)
	tb.Insert(1, Result{})
	tb.Insert(2, Result{})
	if err := tb.Insert(3, Result{}); err != ErrTableFull {
		t.Errorf("overflow insert err = %v, want ErrTableFull", err)
	}
	// Replacing an existing key is allowed at capacity.
	if err := tb.Insert(2, Result{ActionID: 5}); err != nil {
		t.Errorf("replace at capacity failed: %v", err)
	}
	r, _ := tb.Lookup(2)
	if r.ActionID != 5 {
		t.Error("replace did not take")
	}
}

// A table nobody inserted into holds no map, and every read-side operation
// behaves as on an empty one; the map appears with the first entry.
func TestExactTableNeverInserted(t *testing.T) {
	tb := NewExactTable(4096)
	if got := testing.AllocsPerRun(10, func() { NewExactTable(4096) }); got > 1 {
		t.Errorf("NewExactTable allocates %v objects, want the header only", got)
	}
	if _, ok := tb.Lookup(7); ok {
		t.Error("empty table hit")
	}
	tb.Delete(7)
	if tb.Len() != 0 || tb.Capacity() != 4096 || tb.m != nil {
		t.Errorf("Len %d, Capacity %d, map made %v", tb.Len(), tb.Capacity(), tb.m != nil)
	}
	// Full at capacity from the start: nothing fits, nothing is allocated.
	zero := NewExactTable(0)
	if err := zero.Insert(1, Result{}); err != ErrTableFull {
		t.Errorf("insert into a 0-entry table: err = %v, want ErrTableFull", err)
	}
	if zero.Len() != 0 || zero.m != nil {
		t.Errorf("0-entry table: Len %d, map made %v", zero.Len(), zero.m != nil)
	}
	if err := tb.Insert(7, Result{ActionID: 3}); err != nil {
		t.Fatal(err)
	}
	if r, ok := tb.Lookup(7); !ok || r.ActionID != 3 || tb.Len() != 1 {
		t.Errorf("after first insert: Lookup = %+v, %v; Len %d", r, ok, tb.Len())
	}
}

func TestTernaryPriority(t *testing.T) {
	tb := NewTernaryTable(10)
	// Low-priority catch-all, higher-priority specific.
	tb.InsertRule(0, 0, 1, Result{ActionID: 1})
	tb.InsertRule(0x0F00, 0xFF00, 10, Result{ActionID: 2})
	r, ok := tb.Lookup(0x0F42)
	if !ok || r.ActionID != 2 {
		t.Errorf("specific rule lost: %+v", r)
	}
	r, ok = tb.Lookup(0x1234)
	if !ok || r.ActionID != 1 {
		t.Errorf("catch-all lost: %+v", r)
	}
}

func TestTernaryCapacityDelete(t *testing.T) {
	tb := NewTernaryTable(2)
	tb.Insert(5, Result{ActionID: 1})
	tb.Insert(6, Result{ActionID: 2})
	if err := tb.Insert(7, Result{}); err != ErrTableFull {
		t.Errorf("err = %v, want ErrTableFull", err)
	}
	tb.Delete(5)
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
	if _, ok := tb.Lookup(5); ok {
		t.Error("deleted rule still matches")
	}
	if err := tb.Insert(7, Result{ActionID: 3}); err != nil {
		t.Errorf("insert after delete: %v", err)
	}
}

func TestTernaryNoMatch(t *testing.T) {
	tb := NewTernaryTable(4)
	tb.InsertRule(0xFF, 0xFF, 0, Result{})
	if _, ok := tb.Lookup(0xFE); ok {
		t.Error("non-matching key hit")
	}
}

// Property: exact table stores and retrieves arbitrary key sets faithfully.
func TestExactTableProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tb := NewExactTable(len(keys) + 1)
		want := make(map[uint64]int)
		for i, k := range keys {
			want[k] = i
			if err := tb.Insert(k, Result{ActionID: i}); err != nil {
				return false
			}
		}
		for k, i := range want {
			r, ok := tb.Lookup(k)
			if !ok || r.ActionID != i {
				return false
			}
		}
		return tb.Len() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ternary lookup honors mask semantics.
func TestTernaryMaskProperty(t *testing.T) {
	f := func(value, mask, key uint64) bool {
		tb := NewTernaryTable(1)
		tb.InsertRule(value, mask, 0, Result{ActionID: 1})
		_, ok := tb.Lookup(key)
		return ok == (key&mask == value&mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHashToBucketCoverageAndDeterminism(t *testing.T) {
	seen := make(map[int]int)
	for k := uint64(0); k < 10000; k++ {
		b := HashToBucket(k, 8)
		if b < 0 || b >= 8 {
			t.Fatalf("bucket %d out of range", b)
		}
		seen[b]++
		if HashToBucket(k, 8) != b {
			t.Fatal("HashToBucket not deterministic")
		}
	}
	for b := 0; b < 8; b++ {
		if seen[b] < 800 { // expect ~1250 each; generous bound
			t.Errorf("bucket %d badly underloaded: %d", b, seen[b])
		}
	}
	// Non-power-of-two path.
	for k := uint64(0); k < 1000; k++ {
		b := HashToBucket(k, 7)
		if b < 0 || b >= 7 {
			t.Fatalf("bucket %d out of [0,7)", b)
		}
	}
	mustPanicMat(t, func() { HashToBucket(1, 0) })
}

func mustPanicMat(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func BenchmarkExactLookup(b *testing.B) {
	tb := NewExactTable(1 << 16)
	for i := 0; i < 1<<16; i++ {
		tb.Insert(uint64(i), Result{ActionID: i})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(uint64(i) & 0xFFFF)
	}
}
