// Package mat implements the match-action substrate: exact/LPM/ternary
// match tables with entry-capacity accounting, stateful register files, and
// the stage memory model that distinguishes RMT from ADCP.
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

import (
	"fmt"
	"math/bits"
)

// Result is the outcome of a table lookup: an action identifier plus
// immediate parameters stored with the entry.
type Result struct {
	ActionID int
	Params   [2]uint64
}

// Table is a match table. Lookup must be allocation-free.
type Table interface {
	// Lookup returns the matching entry's result.
	Lookup(key uint64) (Result, bool)
	// Insert adds or replaces an entry; it fails when capacity is exhausted.
	Insert(key uint64, r Result) error
	// Delete removes an entry if present.
	Delete(key uint64)
	// Len returns the number of installed entries.
	Len() int
	// Capacity returns the maximum number of entries.
	Capacity() int
}

// ErrTableFull is returned by Insert on a full table.
var ErrTableFull = fmt.Errorf("mat: table full")

// ExactTable is a hash-based exact-match table with a hard entry capacity
// (SRAM entries in a real stage).
type ExactTable struct {
	m   map[uint64]Result // nil until the first Insert
	cap int
}

// exactTableHint caps the size the backing map is first made with; beyond
// it the map grows on demand (most simulated tables stay far below the
// modeled SRAM capacity).
const exactTableHint = 1024

// NewExactTable returns an empty exact table holding up to capacity
// entries. It allocates no storage: switches instantiate hundreds of
// tables and fill few, so the backing map is made by the first Insert
// (sized min(capacity, exactTableHint)) and a never-filled table costs
// only its header.
func NewExactTable(capacity int) *ExactTable {
	return &ExactTable{cap: capacity}
}

// Lookup implements Table.
func (t *ExactTable) Lookup(key uint64) (Result, bool) {
	r, ok := t.m[key]
	return r, ok
}

// Insert implements Table.
func (t *ExactTable) Insert(key uint64, r Result) error {
	if _, exists := t.m[key]; !exists && len(t.m) >= t.cap {
		return ErrTableFull
	}
	if t.m == nil {
		t.m = make(map[uint64]Result, min(t.cap, exactTableHint))
	}
	t.m[key] = r
	return nil
}

// Delete implements Table.
func (t *ExactTable) Delete(key uint64) { delete(t.m, key) }

// Len implements Table.
func (t *ExactTable) Len() int { return len(t.m) }

// Capacity implements Table.
func (t *ExactTable) Capacity() int { return t.cap }

// LPMTable is a longest-prefix-match table over 32-bit keys (TCAM-style
// routing lookups). Lookups scan per-length buckets from longest to
// shortest; with ≤33 lengths this is fast enough for simulation.
type LPMTable struct {
	buckets [33]map[uint32]Result // index = prefix length
	n       int
	cap     int
}

// NewLPMTable returns an LPM table holding up to capacity rules.
func NewLPMTable(capacity int) *LPMTable {
	return &LPMTable{cap: capacity}
}

func lpmMask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// InsertPrefix adds a rule matching keys whose top length bits equal prefix.
func (t *LPMTable) InsertPrefix(prefix uint32, length int, r Result) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("mat: bad prefix length %d", length)
	}
	prefix &= lpmMask(length)
	if t.buckets[length] == nil {
		t.buckets[length] = make(map[uint32]Result)
	}
	if _, exists := t.buckets[length][prefix]; !exists {
		if t.n >= t.cap {
			return ErrTableFull
		}
		t.n++
	}
	t.buckets[length][prefix] = r
	return nil
}

// Lookup implements Table over the low 32 bits of key.
func (t *LPMTable) Lookup(key uint64) (Result, bool) {
	k := uint32(key)
	for length := 32; length >= 0; length-- {
		b := t.buckets[length]
		if b == nil {
			continue
		}
		if r, ok := b[k&lpmMask(length)]; ok {
			return r, true
		}
	}
	return Result{}, false
}

// Insert implements Table as a host-width exact rule (length 32).
func (t *LPMTable) Insert(key uint64, r Result) error {
	return t.InsertPrefix(uint32(key), 32, r)
}

// Delete implements Table for length-32 rules.
func (t *LPMTable) Delete(key uint64) {
	if b := t.buckets[32]; b != nil {
		if _, ok := b[uint32(key)]; ok {
			delete(b, uint32(key))
			t.n--
		}
	}
}

// DeletePrefix removes a specific rule.
func (t *LPMTable) DeletePrefix(prefix uint32, length int) {
	if length < 0 || length > 32 {
		return
	}
	prefix &= lpmMask(length)
	if b := t.buckets[length]; b != nil {
		if _, ok := b[prefix]; ok {
			delete(b, prefix)
			t.n--
		}
	}
}

// Len implements Table.
func (t *LPMTable) Len() int { return t.n }

// Capacity implements Table.
func (t *LPMTable) Capacity() int { return t.cap }

// ternaryEntry is one value/mask rule with a priority.
type ternaryEntry struct {
	value, mask uint64
	priority    int
	result      Result
	live        bool
}

// TernaryTable matches key against value/mask rules, highest priority wins
// (a TCAM). Rules are scanned in priority order; capacity models TCAM size.
type TernaryTable struct {
	entries []ternaryEntry
	n       int
	cap     int
}

// NewTernaryTable returns a ternary table holding up to capacity rules.
func NewTernaryTable(capacity int) *TernaryTable { return &NewTernaryTables(1, capacity)[0] }

// NewTernaryTables returns count ternary tables of the given capacity in
// one allocation: the TCAMs of a pipeline's stages.
func NewTernaryTables(count, capacity int) []TernaryTable {
	ts := make([]TernaryTable, count)
	for i := range ts {
		ts[i].cap = capacity
	}
	return ts
}

// InsertRule adds a value/mask rule with a priority (higher wins).
func (t *TernaryTable) InsertRule(value, mask uint64, priority int, r Result) error {
	if t.n >= t.cap {
		return ErrTableFull
	}
	t.entries = append(t.entries, ternaryEntry{value: value & mask, mask: mask, priority: priority, result: r, live: true})
	t.n++
	return nil
}

// Lookup implements Table.
func (t *TernaryTable) Lookup(key uint64) (Result, bool) {
	best := -1
	bestPrio := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.live {
			continue
		}
		if key&e.mask == e.value {
			if best == -1 || e.priority > bestPrio {
				best = i
				bestPrio = e.priority
			}
		}
	}
	if best == -1 {
		return Result{}, false
	}
	return t.entries[best].result, true
}

// Insert implements Table as a fully-masked rule at priority 0.
func (t *TernaryTable) Insert(key uint64, r Result) error {
	return t.InsertRule(key, ^uint64(0), 0, r)
}

// Delete implements Table: removes fully-masked rules equal to key.
func (t *TernaryTable) Delete(key uint64) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.live && e.mask == ^uint64(0) && e.value == key {
			e.live = false
			t.n--
		}
	}
}

// Len implements Table.
func (t *TernaryTable) Len() int { return t.n }

// Capacity implements Table.
func (t *TernaryTable) Capacity() int { return t.cap }

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

// Log2Ceil returns ceil(log2(n)) for n ≥ 1 (0 for n ≤ 1); used by memory
// sizing computations.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
