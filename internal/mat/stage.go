package mat

import "fmt"

// MemoryMode selects how a stage's table memory is organized.
type MemoryMode int

// Stage memory organizations.
const (
	// ModeScalar is classic RMT: the stage's SRAM is statically sliced
	// across MAUs; matching k keys of one packet against the same logical
	// table requires k replicated copies, dividing effective capacity by k
	// (paper Figure 3).
	ModeScalar MemoryMode = iota
	// ModeArray is ADCP §3.2: per-MAU memories are interconnected so all
	// MAUs of a stage look up one shared table simultaneously. No
	// replication; k ≤ MAUs keys match in a single pipeline cycle.
	ModeArray
	// ModeMultiClock is the §4 variant: one shared memory clocked n× the
	// pipeline clock retires n serialized lookups per pipeline cycle.
	ModeMultiClock
)

// String returns the mode mnemonic.
func (m MemoryMode) String() string {
	switch m {
	case ModeScalar:
		return "scalar"
	case ModeArray:
		return "array"
	case ModeMultiClock:
		return "multiclock"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// StageMemory models the match-table SRAM of one pipeline stage.
type StageMemory struct {
	mode        MemoryMode
	numMAUs     int
	capacity    int // total entries of SRAM in the stage
	clockMult   int // memory clock multiple (ModeMultiClock)
	replication int // modelled table copies (1 outside ModeScalar)

	// One physical table in every mode. A scalar stage's k copies are
	// identical by construction — Install writes all of them or none, and
	// nothing addresses one alone — so the model keeps a single table of
	// capacity/k entries and charges the k-fold SRAM arithmetically.
	table ExactTable

	lookups uint64
	cycles  uint64
}

// StageMAUs is the MAU count per stage the paper quotes for current RMT
// switches ("the switches, however, do have 16 match action units per
// stage").
const StageMAUs = 16

// NewStageMemory builds a stage memory. numMAUs and capacity must be
// positive; clockMult is only consulted in ModeMultiClock (minimum 1).
func NewStageMemory(mode MemoryMode, numMAUs, capacity, clockMult int) *StageMemory {
	return &NewStageMemories(1, mode, numMAUs, capacity, clockMult)[0]
}

// NewStageMemories builds the n identical stage memories of a pipeline (or
// of a whole switch) in one allocation; use them in place, through pointers
// into the returned slice.
func NewStageMemories(n int, mode MemoryMode, numMAUs, capacity, clockMult int) []StageMemory {
	if numMAUs <= 0 || capacity <= 0 {
		panic("mat: non-positive stage geometry")
	}
	if clockMult < 1 {
		clockMult = 1
	}
	ms := make([]StageMemory, n)
	for i := range ms {
		s := &ms[i]
		s.mode, s.numMAUs, s.capacity, s.clockMult = mode, numMAUs, capacity, clockMult
		s.configure(1)
	}
	return ms
}

// configure lays out the SRAM for a given replication factor.
func (s *StageMemory) configure(replication int) {
	s.replication = replication
	s.table = ExactTable{cap: s.capacity / replication}
}

// ConfigureReplication re-lays out a scalar stage for k table copies,
// discarding installed entries. It errors in non-scalar modes (ADCP needs
// no replication — that is the point) and when k exceeds the MAU count or
// leaves zero entries per copy.
func (s *StageMemory) ConfigureReplication(k int) error {
	if s.mode != ModeScalar {
		return fmt.Errorf("mat: replication is a scalar-mode concept (mode %v)", s.mode)
	}
	if k < 1 || k > s.numMAUs {
		return fmt.Errorf("mat: replication %d out of range [1,%d]", k, s.numMAUs)
	}
	if s.capacity/k == 0 {
		return fmt.Errorf("mat: replication %d leaves zero entries per copy", k)
	}
	s.configure(k)
	return nil
}

// Mode returns the memory organization.
func (s *StageMemory) Mode() MemoryMode { return s.mode }

// Replication returns the configured replication factor (1 outside scalar).
func (s *StageMemory) Replication() int { return s.replication }

// Parallelism returns how many keys of one packet the stage can match in a
// single pipeline traversal.
func (s *StageMemory) Parallelism() int {
	switch s.mode {
	case ModeScalar:
		return s.replication
	case ModeArray:
		return s.numMAUs
	case ModeMultiClock:
		return s.clockMult
	default:
		return 1
	}
}

// EffectiveCapacity returns the number of distinct entries the logical
// table can hold: total SRAM divided by the replication factor in scalar
// mode (Figure 3), the full SRAM otherwise.
func (s *StageMemory) EffectiveCapacity() int { return s.table.cap }

// Install adds an entry to the logical table: once into shared memory, or
// into every replica in scalar mode (consuming k× the SRAM).
func (s *StageMemory) Install(key uint64, r Result) error { return s.table.Insert(key, r) }

// Installed returns the number of distinct logical entries.
func (s *StageMemory) Installed() int { return s.table.Len() }

// SRAMUsed returns total SRAM entries consumed, including replication.
func (s *StageMemory) SRAMUsed() int { return s.replication * s.table.Len() }

// Lookup matches a single key (MAU 0 in scalar mode). Costs one pipeline
// cycle.
func (s *StageMemory) Lookup(key uint64) (Result, bool) {
	s.lookups++
	s.cycles++
	return s.table.Lookup(key)
}

// ErrBatchTooWide is returned when a batch exceeds the stage's parallelism;
// the caller (pipeline/switch) must recirculate or split the packet.
var ErrBatchTooWide = fmt.Errorf("mat: batch exceeds stage parallelism")

// LookupBatch matches keys (one per MAU / memory beat) in a single pipeline
// traversal, writing results and hit flags into the provided slices (which
// must be at least len(keys) long). It returns the pipeline cycles consumed
// — always 1: scalar replicas and the array interconnect match in parallel,
// and the multi-clock memory hides its serialization behind its faster
// clock. Batches wider than Parallelism return ErrBatchTooWide.
func (s *StageMemory) LookupBatch(keys []uint64, results []Result, hits []bool) (int, error) {
	if len(keys) > s.Parallelism() {
		return 0, ErrBatchTooWide
	}
	s.lookups += uint64(len(keys))
	s.cycles++
	for i, k := range keys {
		results[i], hits[i] = s.table.Lookup(k)
	}
	return 1, nil
}

// MemoryClockMultiple returns the clock ratio the §4 multi-clock design
// needs to sustain this stage's parallelism (1 in other modes).
func (s *StageMemory) MemoryClockMultiple() int {
	if s.mode == ModeMultiClock {
		return s.clockMult
	}
	return 1
}

// Lookups returns total key lookups served.
func (s *StageMemory) Lookups() uint64 { return s.lookups }

// Cycles returns total pipeline cycles consumed by lookups.
func (s *StageMemory) Cycles() uint64 { return s.cycles }
