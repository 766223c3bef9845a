// Package mat implements the match-action substrate: exact-match tables
// with entry-capacity accounting, stateful register files, and the stage
// memory model that distinguishes RMT from ADCP.
//
// In RMT (paper §2, limitation ②) each match-action unit (MAU) owns a
// private slice of a stage's table memory and matches one scalar key per
// packet; matching k keys from one packet against the same logical table
// requires k replicated copies, dividing effective capacity by k. In ADCP
// (§3.2) the per-MAU memories are interconnected so the MAUs of a stage can
// perform parallel lookups against one shared table. The §4 multi-clock
// variant instead clocks one memory n× faster than the pipeline and retires
// n serialized lookups per pipeline cycle. Both are modeled here with
// explicit cycle accounting.
package mat

import "fmt"

// Result is the outcome of a table lookup: an action identifier plus
// immediate parameters stored with the entry.
type Result struct {
	ActionID int
	Params   [2]uint64
}

// ErrTableFull is returned by Insert on a full table.
var ErrTableFull = fmt.Errorf("mat: table full")

// ExactTable is a hash-based exact-match table with a hard entry capacity
// (SRAM entries in a real stage).
type ExactTable struct {
	m   map[uint64]Result // nil until the first Insert
	cap int
}

// NewExactTable returns an empty exact table holding up to capacity
// entries. It allocates no storage: switches instantiate hundreds of
// tables and fill few, so the backing map is made by the first Insert
// (or Reserve) and grows with the entries, not with the capacity. A
// never-filled table costs only its header.
func NewExactTable(capacity int) *ExactTable {
	return &ExactTable{cap: capacity}
}

// Reserve makes an empty table's map for min(n, Capacity()) entries, so
// a caller that knows how many it will install sizes the map once. It
// does nothing on a table that already has a map, and it never changes
// what the table accepts.
func (t *ExactTable) Reserve(n int) {
	if h := min(n, t.cap); t.m == nil && h > 0 {
		t.m = make(map[uint64]Result, h)
	}
}

// Lookup returns the matching entry's result. It does not allocate.
func (t *ExactTable) Lookup(key uint64) (Result, bool) {
	r, ok := t.m[key]
	return r, ok
}

// Insert adds or replaces an entry; it fails with ErrTableFull when the
// table is at capacity.
func (t *ExactTable) Insert(key uint64, r Result) error {
	if _, exists := t.m[key]; !exists && len(t.m) >= t.cap {
		return ErrTableFull
	}
	if t.m == nil {
		t.m = make(map[uint64]Result)
	}
	t.m[key] = r
	return nil
}

// Delete removes an entry if present.
func (t *ExactTable) Delete(key uint64) { delete(t.m, key) }

// Len returns the number of installed entries.
func (t *ExactTable) Len() int { return len(t.m) }

// Capacity returns the maximum number of entries.
func (t *ExactTable) Capacity() int { return t.cap }

// HashKey mixes a 64-bit key (used by partitioners and table distribution);
// SplitMix64 finalizer, deterministic across platforms.
func HashKey(k uint64) uint64 {
	k += 0x9E3779B97F4A7C15
	k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9
	k = (k ^ (k >> 27)) * 0x94D049BB133111EB
	return k ^ (k >> 31)
}

// HashToBucket maps key onto [0, n) with good dispersion. n must be > 0.
func HashToBucket(key uint64, n int) int {
	if n <= 0 {
		panic("mat: HashToBucket with n <= 0")
	}
	if n&(n-1) == 0 {
		return int(HashKey(key) & uint64(n-1))
	}
	return int(HashKey(key) % uint64(n))
}
