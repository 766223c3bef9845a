package mat

import (
	"runtime"
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

// Reserve sizes an empty table's map once: n inserts after Reserve(n)
// allocate nothing, a table that already has a map ignores it, and what
// the table accepts depends on its capacity alone.
func TestExactTableReserve(t *testing.T) {
	const n, runs = 1000, 10
	tables := make([]*ExactTable, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range tables {
		tables[i] = NewExactTable(4096)
		tables[i].Reserve(n)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		tb := tables[next]
		next++
		for k := uint64(0); k < n; k++ {
			if err := tb.Insert(k, Result{ActionID: int(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("%d inserts after Reserve(%d) allocate %v objects, want 0", n, n, got)
	}

	// A table with a map keeps it and its entries.
	tb := NewExactTable(4096)
	if err := tb.Insert(7, Result{ActionID: 3}); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() { tb.Reserve(n) }); got != 0 {
		t.Errorf("Reserve on a table with a map allocates %v objects", got)
	}
	if r, ok := tb.Lookup(7); !ok || r.ActionID != 3 || tb.Len() != 1 {
		t.Errorf("after Reserve: Lookup = %+v, %v; Len %d", r, ok, tb.Len())
	}

	// A reserve above capacity clamps to it and moves no bound: the table
	// still fills at 16, refuses a 17th key and replaces at capacity.
	small := NewExactTable(16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	small.Reserve(1 << 20)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Errorf("Reserve(1<<20) on a 16-entry table allocated %d bytes", b)
	}
	if got := testing.AllocsPerRun(10, func() {
		for k := uint64(0); k < 16; k++ {
			if err := small.Insert(k, Result{ActionID: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("filling a clamped reserve allocates %v objects", got)
	}
	if err := small.Insert(16, Result{}); err != ErrTableFull {
		t.Errorf("17th key: err = %v, want ErrTableFull", err)
	}
	if err := small.Insert(3, Result{ActionID: 9}); err != nil {
		t.Errorf("replace at capacity: %v", err)
	}
	if r, _ := small.Lookup(3); r.ActionID != 9 || small.Len() != 16 || small.Capacity() != 16 {
		t.Errorf("replace at capacity: ActionID %d, Len %d, Capacity %d", r.ActionID, small.Len(), small.Capacity())
	}
	zero := NewExactTable(0)
	zero.Reserve(8)
	if zero.m != nil || zero.Insert(1, Result{}) != ErrTableFull {
		t.Error("a 0-entry table made a map on Reserve or accepted an entry")
	}
}
