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
// reusable result. Fields the consumer does not map and that no selector
// or array count reads are dropped at bind time — their extraction was
// invisible to consumers of ParseResult, and per-state header-length
// checks (the only way a scalar extract can fail) are preserved exactly.

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

	vals []uint64 // per-state extract scratch (selector and count values)
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

type boundExtract struct {
	off   int
	width int
	slot  int // consumer slot; -1 = extracted for selector/count use only
}

type boundArray struct {
	slot     int // consumer slot; -1 = bounds-check only (unmapped)
	countIdx int // index into the state's kept extracts
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
	extracts []boundExtract
	arrays   []boundArray
	selIdx   int // index into extracts; -1 = no selector
	branches []boundBranch
	def      int // next state index; -1 = accept
}

// BoundParser is a ParseGraph resolved against one consumer's field
// mapping (see ParseGraph.Bind). It is immutable once bound — all per-run
// scratch lives in the caller's FlatResult — so every pipeline of a switch
// shares one.
type BoundParser struct {
	states      []boundState
	start       int
	maxExtracts int // widest state: sizes FlatResult's scratch
}

// Bind validates the graph and resolves it against a consumer mapping:
// lookup returns the consumer's slot for a field or array name (array
// distinguishes scalar extracts from array extractions), or a negative
// slot for names the consumer does not store. Unmapped scalars that no
// selector or array count reads are dropped from the bound program;
// unmapped arrays keep their bounds checks (a truncated element is a
// parse error regardless of who stores the values).
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
		last := make(map[string]int, len(s.Extracts))
		for i, f := range s.Extracts {
			last[f.Name] = i
		}
		needed := make(map[int]bool)
		if s.Select != "" {
			needed[last[s.Select]] = true
		}
		for _, a := range s.Arrays {
			needed[last[a.CountField]] = true
		}
		bs := boundState{hdrLen: s.HdrLen, selIdx: -1, def: resolve(s.Default)}
		kept := make(map[int]int, len(s.Extracts)) // original index → bound index
		for i, f := range s.Extracts {
			slot := lookup(f.Name, false)
			if slot < 0 && !needed[i] {
				continue
			}
			if slot < 0 {
				slot = -1
			}
			kept[i] = len(bs.extracts)
			bs.extracts = append(bs.extracts, boundExtract{off: f.Offset, width: f.Width, slot: slot})
		}
		if s.Select != "" {
			bs.selIdx = kept[last[s.Select]]
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
			slot := lookup(a.Name, true)
			if slot < 0 {
				slot = -1
			}
			maxN := a.MaxCount
			if maxN <= 0 {
				maxN = 16
			}
			bs.arrays = append(bs.arrays, boundArray{
				slot:     slot,
				countIdx: kept[last[a.CountField]],
				base:     a.BaseOffset,
				stride:   a.Stride,
				elemOff:  a.ElemOffset,
				maxCount: maxN,
			})
		}
		if len(bs.extracts) > b.maxExtracts {
			b.maxExtracts = len(bs.extracts)
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
	if maxStates <= 0 {
		maxStates = 64
	}
	res.Fields = res.Fields[:0]
	res.Arrays = res.Arrays[:0]
	res.StatesVisited = 0
	res.BytesConsumed = 0
	if cap(res.vals) < b.maxExtracts {
		res.vals = make([]uint64, b.maxExtracts)
	}
	cur := b.start
	for cur >= 0 {
		if res.StatesVisited >= maxStates {
			return fmt.Errorf("packet: parse exceeded %d states (cycle?)", maxStates)
		}
		s := &b.states[cur]
		if len(data) < s.hdrLen {
			return ErrTruncated
		}
		vals := res.vals[:len(s.extracts)]
		for i := range s.extracts {
			f := &s.extracts[i]
			var v uint64
			switch f.width {
			case 1:
				v = uint64(data[f.off])
			case 2:
				v = uint64(binary.BigEndian.Uint16(data[f.off:]))
			case 4:
				v = uint64(binary.BigEndian.Uint32(data[f.off:]))
			}
			vals[i] = v
			if f.slot >= 0 {
				res.Fields = append(res.Fields, FlatField{Slot: f.slot, Val: v})
			}
		}
		body := data[s.hdrLen:]
		for i := range s.arrays {
			a := &s.arrays[i]
			n := int(vals[a.countIdx])
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
			if a.slot < 0 {
				continue
			}
			out := res.addArray(a.slot, n)
			for j := 0; j < n; j++ {
				out[j] = binary.BigEndian.Uint32(body[a.base+j*a.stride+a.elemOff:])
			}
		}
		data = body
		res.BytesConsumed += s.hdrLen
		res.StatesVisited++
		if s.selIdx < 0 {
			cur = s.def
			continue
		}
		v := vals[s.selIdx]
		cur = s.def
		for i := range s.branches {
			if s.branches[i].val == v {
				cur = s.branches[i].next
				break
			}
		}
	}
	return nil
}
