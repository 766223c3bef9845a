// Package phv models the Packet Header Vector: the register file that
// carries scalars (and, on ADCP, arrays) between pipeline stages.
//
// The paper (§2) notes that "the PHV naming is misleading; its elements are
// scalars extracted from the packets". RMT PHVs are a fixed budget of 8-,
// 16-, and 32-bit containers; a program that extracts more fields than the
// budget does not fit. ADCP (§3.2) additionally provides array containers so
// that a packet's data elements can travel the pipeline as a unit instead of
// being serialized into scalar containers (or worse, separate packets).
//
// A Layout is the compile-time allocation of named fields to containers; a
// Vector is the run-time instance flowing between stages. Pipelines fill one
// only for a traversal that reads it, and pool them to keep the per-packet
// hot path allocation-free.
package phv

import "fmt"

// Width is a container width in bits.
type Width int

// Container widths available in the PHV, mirroring RMT's 8/16/32-bit
// container classes.
const (
	W8  Width = 8
	W16 Width = 16
	W32 Width = 32
)

// Budget describes how many containers of each width a PHV provides.
// DefaultBudget approximates a Tofino-class PHV (4 Kb total).
type Budget struct {
	N8, N16, N32 int
	// ArraySlots is the number of array containers (ADCP only; 0 on RMT).
	ArraySlots int
	// ArrayWidth is the element count of each array container.
	ArrayWidth int
}

// DefaultBudget is a Tofino-like PHV: 64×8b + 96×16b + 64×32b = 4096 bits.
var DefaultBudget = Budget{N8: 64, N16: 96, N32: 64}

// ADCPBudget is DefaultBudget plus 4 array containers of 16 32-bit elements.
var ADCPBudget = Budget{N8: 64, N16: 96, N32: 64, ArraySlots: 4, ArrayWidth: 16}

// Bits returns the total scalar capacity in bits.
func (b Budget) Bits() int { return 8*b.N8 + 16*b.N16 + 32*b.N32 }

// FieldID is a dense handle to an allocated field; indexes are stable for a
// given Layout and can be used in hot paths instead of names.
type FieldID int

// Invalid is returned by lookups of unallocated names.
const Invalid FieldID = -1

type fieldInfo struct {
	name  string
	width Width
	slot  int // index within that width class
	array bool
}

// Layout maps field names to containers under a Budget.
type Layout struct {
	budget Budget
	fields []fieldInfo
	byName map[string]FieldID
	used   map[Width]int
	usedAr int
}

// NewLayout returns an empty layout over the budget.
func NewLayout(b Budget) *Layout {
	return &Layout{
		budget: b,
		byName: make(map[string]FieldID),
		used:   map[Width]int{W8: 0, W16: 0, W32: 0},
	}
}

// Alloc assigns a scalar container of the given width to name. Allocating
// the same name twice or exceeding the budget returns an error.
func (l *Layout) Alloc(name string, w Width) (FieldID, error) {
	if _, dup := l.byName[name]; dup {
		return Invalid, fmt.Errorf("phv: field %q already allocated", name)
	}
	var limit int
	switch w {
	case W8:
		limit = l.budget.N8
	case W16:
		limit = l.budget.N16
	case W32:
		limit = l.budget.N32
	default:
		return Invalid, fmt.Errorf("phv: bad width %d", w)
	}
	if l.used[w] >= limit {
		return Invalid, fmt.Errorf("phv: out of %d-bit containers (budget %d)", w, limit)
	}
	id := FieldID(len(l.fields))
	l.fields = append(l.fields, fieldInfo{name: name, width: w, slot: l.used[w]})
	l.used[w]++
	l.byName[name] = id
	return id, nil
}

// AllocArray assigns an array container to name. It fails when the budget
// has no (more) array slots — i.e. always on an RMT-budget layout, which is
// exactly limitation ② of the paper.
func (l *Layout) AllocArray(name string) (FieldID, error) {
	if _, dup := l.byName[name]; dup {
		return Invalid, fmt.Errorf("phv: field %q already allocated", name)
	}
	if l.usedAr >= l.budget.ArraySlots {
		return Invalid, fmt.Errorf("phv: no array containers (budget %d; RMT has none)", l.budget.ArraySlots)
	}
	id := FieldID(len(l.fields))
	l.fields = append(l.fields, fieldInfo{name: name, width: W32, slot: l.usedAr, array: true})
	l.usedAr++
	l.byName[name] = id
	return id, nil
}

// Lookup returns the FieldID for name, or Invalid.
func (l *Layout) Lookup(name string) FieldID {
	if id, ok := l.byName[name]; ok {
		return id
	}
	return Invalid
}

// IsArray reports whether id names an array container.
func (l *Layout) IsArray(id FieldID) bool {
	return int(id) < len(l.fields) && l.fields[id].array
}

// NameOf returns the field's name.
func (l *Layout) NameOf(id FieldID) string { return l.fields[id].name }

// NumFields returns the number of allocated fields.
func (l *Layout) NumFields() int { return len(l.fields) }

// ArrayWidth returns the element count of array containers.
func (l *Layout) ArrayWidth() int { return l.budget.ArrayWidth }

// UsedBits returns scalar bits allocated so far.
func (l *Layout) UsedBits() int {
	return 8*l.used[W8] + 16*l.used[W16] + 32*l.used[W32]
}

// Fields returns the allocated field names in allocation order.
func (l *Layout) Fields() []string {
	names := make([]string, len(l.fields))
	for i, f := range l.fields {
		names[i] = f.name
	}
	return names
}

// Vector is a run-time PHV instance. Scalars are stored masked to their
// container width; arrays have a live length ≤ ArrayWidth.
type Vector struct {
	layout  *Layout
	scalars []uint64
	arrays  [][]uint32
	arrLens []int
	// Valid marks per-field validity (a header may be absent on a packet).
	valid []bool
}

// NewVector allocates a vector for the layout.
func NewVector(l *Layout) *Vector {
	v := &Vector{
		layout:  l,
		scalars: make([]uint64, len(l.fields)),
		valid:   make([]bool, len(l.fields)),
	}
	if l.budget.ArraySlots > 0 {
		v.arrays = make([][]uint32, len(l.fields))
		v.arrLens = make([]int, len(l.fields))
		for id, f := range l.fields {
			if f.array {
				v.arrays[id] = make([]uint32, l.budget.ArrayWidth)
			}
		}
	}
	return v
}

// Reset invalidates all fields (reusing storage).
func (v *Vector) Reset() {
	for i := range v.valid {
		v.valid[i] = false
		v.scalars[i] = 0
	}
	for i := range v.arrLens {
		v.arrLens[i] = 0
	}
}

func mask(w Width) uint64 {
	switch w {
	case W8:
		return 0xFF
	case W16:
		return 0xFFFF
	default:
		return 0xFFFFFFFF
	}
}

// Set stores a scalar value (masked to the container width) and marks the
// field valid. Setting an array field panics; use SetArray.
func (v *Vector) Set(id FieldID, val uint64) {
	f := &v.layout.fields[id]
	if f.array {
		panic(fmt.Sprintf("phv: Set on array field %q", f.name))
	}
	v.scalars[id] = val & mask(f.width)
	v.valid[id] = true
}

// Get returns the scalar value of a field (0 if invalid).
func (v *Vector) Get(id FieldID) uint64 { return v.scalars[id] }

// Valid reports whether the field has been set since the last Reset.
func (v *Vector) Valid(id FieldID) bool { return v.valid[id] }

// SetArray copies vals (truncated to the array width) into an array field.
func (v *Vector) SetArray(id FieldID, vals []uint32) {
	f := &v.layout.fields[id]
	if !f.array {
		panic(fmt.Sprintf("phv: SetArray on scalar field %q", f.name))
	}
	n := len(vals)
	if n > v.layout.budget.ArrayWidth {
		n = v.layout.budget.ArrayWidth
	}
	copy(v.arrays[id][:n], vals[:n])
	v.arrLens[id] = n
	v.valid[id] = true
}

// Array returns the live slice of an array field. The returned slice aliases
// the vector's storage; callers may mutate elements in place.
func (v *Vector) Array(id FieldID) []uint32 {
	return v.arrays[id][:v.arrLens[id]]
}

// Layout returns the vector's layout.
func (v *Vector) Layout() *Layout { return v.layout }

// Snapshot returns a name→value map of valid scalar fields, for tracing and
// tests (names sorted for deterministic iteration by the caller).
func (v *Vector) Snapshot() map[string]uint64 {
	m := make(map[string]uint64)
	for id, f := range v.layout.fields {
		if v.valid[id] && !f.array {
			m[f.name] = v.scalars[id]
		}
	}
	return m
}

// Pool is a free list of Vectors for one layout; pipelines use it so that
// steady-state packet processing performs no allocation.
type Pool struct {
	layout *Layout
	free   []*Vector
}

// NewPool returns an empty pool for the layout.
func NewPool(l *Layout) *Pool { return &Pool{layout: l} }

// Get returns a reset vector, reusing a pooled one when available.
func (p *Pool) Get() *Vector {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		v.Reset()
		return v
	}
	return NewVector(p.layout)
}

// Put returns a vector to the pool.
func (p *Pool) Put(v *Vector) {
	if v != nil {
		p.free = append(p.free, v)
	}
}
