package mat

import "fmt"

// RegisterOp is a read-modify-write operation on a register cell. These are
// the stateful-ALU primitives that make "stateful processing" (paper §1)
// possible: each packet may atomically read and update one cell per
// register file per stage.
type RegisterOp int

// Register operations.
const (
	RegRead  RegisterOp = iota // result = cell
	RegWrite                   // cell = arg; result = old value
	RegAdd                     // cell += arg; result = new value
	RegMax                     // cell = max(cell, arg); result = new value
	RegMin                     // cell = min(cell, arg); result = new value
	RegCAS                     // if cell == 0 { cell = arg }; result = old value
)

// String returns the op mnemonic.
func (op RegisterOp) String() string {
	switch op {
	case RegRead:
		return "read"
	case RegWrite:
		return "write"
	case RegAdd:
		return "add"
	case RegMax:
		return "max"
	case RegMin:
		return "min"
	case RegCAS:
		return "cas"
	default:
		return fmt.Sprintf("regop(%d)", int(op))
	}
}

// RegisterFile is an array of stateful cells local to one stage. Real RMT
// register files permit exactly one RMW per packet per file; the pipeline
// enforces that constraint, this type just provides the storage and ops.
type RegisterFile struct {
	// cells is nil until the first Execute or Restore: most stages of most
	// switches never run an RMW, and an untouched file reads as n zeroes
	// without holding them.
	cells []uint64
	n     int
	ops   uint64 // RMW operations executed (for accounting)
}

// NewRegisterFile returns a file of n zeroed cells.
func NewRegisterFile(n int) *RegisterFile { return &NewRegisterFiles(1, n)[0] }

// NewRegisterFiles returns count files of n zeroed cells each, in one
// allocation: the register files of a pipeline's stages.
func NewRegisterFiles(count, n int) []RegisterFile {
	if n < 0 {
		panic(fmt.Sprintf("mat: register file of %d cells", n))
	}
	fs := make([]RegisterFile, count)
	for i := range fs {
		fs[i].n = n
	}
	return fs
}

// Size returns the number of cells.
func (f *RegisterFile) Size() int { return f.n }

// Ops returns the number of RMW operations executed.
func (f *RegisterFile) Ops() uint64 { return f.ops }

// Peek reads a cell without counting as an RMW (test/inspection use).
// Out-of-range indexes panic, as in Execute.
func (f *RegisterFile) Peek(idx int) uint64 {
	if f.cells == nil && uint(idx) < uint(f.n) {
		return 0
	}
	return f.cells[idx]
}

// Execute performs op on cell idx with argument arg and returns the result.
// Out-of-range indexes panic: the compiler layer is responsible for bounds.
func (f *RegisterFile) Execute(op RegisterOp, idx int, arg uint64) uint64 {
	if f.cells == nil {
		f.cells = make([]uint64, f.n)
	}
	f.ops++
	cell := &f.cells[idx]
	switch op {
	case RegRead:
		return *cell
	case RegWrite:
		old := *cell
		*cell = arg
		return old
	case RegAdd:
		*cell += arg
		return *cell
	case RegMax:
		if arg > *cell {
			*cell = arg
		}
		return *cell
	case RegMin:
		if arg < *cell {
			*cell = arg
		}
		return *cell
	case RegCAS:
		old := *cell
		if old == 0 {
			*cell = arg
		}
		return old
	default:
		panic(fmt.Sprintf("mat: unknown register op %d", op))
	}
}

// Snapshot copies the cells (tests and result extraction).
func (f *RegisterFile) Snapshot() []uint64 {
	out := make([]uint64, f.n)
	copy(out, f.cells)
	return out
}

// Restore overwrites the file's cells and RMW count from a checkpoint.
// The cell count must match the file's geometry.
func (f *RegisterFile) Restore(cells []uint64, ops uint64) error {
	if len(cells) != f.n {
		return fmt.Errorf("mat: restore %d cells into a %d-cell file", len(cells), f.n)
	}
	if f.cells == nil {
		f.cells = make([]uint64, f.n)
	}
	copy(f.cells, cells)
	f.ops = ops
	return nil
}

// Reset zeroes all cells (keeps op count).
func (f *RegisterFile) Reset() {
	for i := range f.cells {
		f.cells[i] = 0
	}
}
