package packet

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file implements the bound (pre-resolved) form of the parse graph.
// ParseGraph.Run builds name-keyed maps per packet; on the simulator hot
// path that is the single largest per-packet allocation source. Binding
// resolves every state reference, branch target, selector, and array
// count to integer indexes once, and resolves field names to the
// consumer's slot numbers (the pipeline passes PHV field IDs), so the
// per-packet parse loop touches only flat slices and a caller-owned
// reusable result. Fields the consumer does not map are dropped at bind
// time — their extraction was invisible to consumers of ParseResult, and
// per-state header-length checks (the only way a scalar extract can fail)
// are preserved exactly.

// FlatField is one extracted scalar, keyed by the consumer slot given to
// Bind's lookup function.
type FlatField struct {
	Slot int
	Val  uint64
}

// FlatArray is one extracted array, keyed by consumer slot. Vals aliases
// the FlatResult's internal buffer and is valid until the next Run.
type FlatArray struct {
	Slot int
	Vals []uint32
}

// FlatResult is the reusable output of BoundParser.Run. Successive runs
// reuse the backing storage; steady-state parsing allocates nothing.
type FlatResult struct {
	Fields        []FlatField
	Arrays        []FlatArray
	StatesVisited int
	BytesConsumed int
	// Path identifies the sequence of states the walk visited: two walks
	// with equal non-zero Paths went through the same states and so
	// extracted the same set of fields. Zero is a walk too long to identify.
	Path uint64
}

func (r *FlatResult) addArray(slot, n int) []uint32 {
	if len(r.Arrays) < cap(r.Arrays) {
		r.Arrays = r.Arrays[:len(r.Arrays)+1]
	} else {
		r.Arrays = append(r.Arrays, FlatArray{})
	}
	e := &r.Arrays[len(r.Arrays)-1]
	e.Slot = slot
	if cap(e.Vals) < n {
		e.Vals = make([]uint32, n)
	} else {
		e.Vals = e.Vals[:n]
	}
	return e.Vals
}

// boundExtract is one scalar read within a state's header. The zero value
// (width 0) is "no such read" — a state without a selector.
type boundExtract struct {
	off   int
	width int
	slot  int // consumer slot (stored extracts only)
}

func (f *boundExtract) read(data []byte) uint64 {
	switch f.width {
	case 1:
		return uint64(data[f.off])
	case 2:
		return uint64(binary.BigEndian.Uint16(data[f.off:]))
	default:
		return uint64(binary.BigEndian.Uint32(data[f.off:]))
	}
}

type boundArray struct {
	slot     int          // consumer slot; negative = bounds-check only (unmapped)
	count    boundExtract // the scalar holding the element count
	base     int
	stride   int
	elemOff  int
	maxCount int
}

type boundBranch struct {
	val  uint64
	next int
}

type boundState struct {
	hdrLen   int
	extracts []boundExtract // what the consumer stores, in graph order
	arrays   []boundArray
	sel      boundExtract // width 0 = no selector
	branches []boundBranch
	def      int // next state index; -1 = accept
}

// BoundParser is a ParseGraph resolved against one consumer's field
// mapping (see ParseGraph.Bind). It is immutable once bound — all per-run
// scratch lives in the caller's FlatResult — so every pipeline of a switch
// shares one.
type BoundParser struct {
	states []boundState
	start  int
}

// Bind validates the graph and resolves it against a consumer mapping:
// lookup returns the consumer's slot for a field or array name (array
// distinguishes scalar extracts from array extractions), or a negative
// slot for names the consumer does not store. Unmapped scalars are dropped
// from the bound program (a selector or array count is read where the walk
// needs it, stored or not); unmapped arrays keep their bounds checks (a
// truncated element is a parse error regardless of who stores the values).
func (g *ParseGraph) Bind(lookup func(name string, array bool) int) (*BoundParser, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(g.states))
	for name := range g.states {
		names = append(names, name)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	resolve := func(name string) int {
		if name == "" {
			return -1
		}
		return index[name]
	}
	b := &BoundParser{start: index[g.start]}
	for _, name := range names {
		s := g.states[name]
		// Last extract of each name wins, exactly like the map the
		// unbound parser fills; selectors and counts read that copy.
		last := make(map[string]boundExtract, len(s.Extracts))
		bs := boundState{hdrLen: s.HdrLen, def: resolve(s.Default)}
		for _, f := range s.Extracts {
			e := boundExtract{off: f.Offset, width: f.Width, slot: lookup(f.Name, false)}
			last[f.Name] = e
			if e.slot >= 0 {
				bs.extracts = append(bs.extracts, e)
			}
		}
		if s.Select != "" {
			bs.sel = last[s.Select]
			vals := make([]uint64, 0, len(s.Next))
			for v := range s.Next {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, v := range vals {
				bs.branches = append(bs.branches, boundBranch{val: v, next: resolve(s.Next[v])})
			}
		}
		for _, a := range s.Arrays {
			maxN := a.MaxCount
			if maxN <= 0 {
				maxN = 16
			}
			bs.arrays = append(bs.arrays, boundArray{
				slot:     lookup(a.Name, true),
				count:    last[a.CountField],
				base:     a.BaseOffset,
				stride:   a.Stride,
				elemOff:  a.ElemOffset,
				maxCount: maxN,
			})
		}
		b.states = append(b.states, bs)
	}
	return b, nil
}

// Run parses data, filling res (which is reset first and whose buffers
// are reused). maxStates bounds traversal (loop protection); 0 means 64.
// Error conditions and costs (StatesVisited, BytesConsumed) are exactly
// those of ParseGraph.Run on the same graph.
func (b *BoundParser) Run(data []byte, maxStates int, res *FlatResult) error {
	return b.walk(data, maxStates, res, true)
}

// Check is Run without the storing: the same walk over the same states with
// the same header-length and array-bounds errors, StatesVisited,
// BytesConsumed and Path, reading only the selectors and array counts that
// steer it. Fields and Arrays come back empty.
func (b *BoundParser) Check(data []byte, maxStates int, res *FlatResult) error {
	return b.walk(data, maxStates, res, false)
}

func (b *BoundParser) walk(data []byte, maxStates int, res *FlatResult, store bool) error {
	if maxStates <= 0 {
		maxStates = 64
	}
	res.Fields = res.Fields[:0]
	res.Arrays = res.Arrays[:0]
	res.Path = 0
	res.StatesVisited = 0
	res.BytesConsumed = 0
	cur := b.start
	for cur >= 0 {
		if res.StatesVisited >= maxStates {
			return fmt.Errorf("packet: parse exceeded %d states (cycle?)", maxStates)
		}
		s := &b.states[cur]
		if len(data) < s.hdrLen {
			return ErrTruncated
		}
		if store {
			fields := res.Fields // a local: appending through res costs the walk 15 %
			for i := range s.extracts {
				f := &s.extracts[i]
				fields = append(fields, FlatField{Slot: f.slot, Val: f.read(data)})
			}
			res.Fields = fields
		}
		body := data[s.hdrLen:]
		for i := range s.arrays {
			a := &s.arrays[i]
			n := int(a.count.read(data))
			if n > a.maxCount {
				n = a.maxCount
			}
			if n > 0 {
				// Element offsets grow monotonically, so the last
				// element's bound implies all earlier ones.
				if a.base+(n-1)*a.stride+a.elemOff+4 > len(body) {
					return ErrTruncated
				}
			}
			if !store || a.slot < 0 {
				continue
			}
			out := res.addArray(a.slot, n)
			for j := 0; j < n; j++ {
				out[j] = binary.BigEndian.Uint32(body[a.base+j*a.stride+a.elemOff:])
			}
		}
		res.Path = res.Path<<8 | uint64(cur+1)
		res.BytesConsumed += s.hdrLen
		res.StatesVisited++
		cur = s.def
		if s.sel.width > 0 {
			v := s.sel.read(data)
			for i := range s.branches {
				if s.branches[i].val == v {
					cur = s.branches[i].next
					break
				}
			}
		}
		data = body
	}
	if res.StatesVisited > 8 || len(b.states) > 255 {
		res.Path = 0 // does not fit eight one-byte state numbers
	}
	return nil
}
