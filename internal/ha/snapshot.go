// Package ha makes switch state survivable: it serializes core.Switch
// state into versioned, canonical checkpoints (this file) and replicates a
// primary switch onto a warm standby with controller-orchestrated failover
// (pair.go). The pair's output-commit contract: after a Submit that returned
// no error, its Committer gets exactly one Commit (the delta shipped, or the
// standby served the packet) or one Discard (the delta died unshipped with
// the primary). See docs/HA.md for the wire format and protocol.
package ha

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/tm"
)

// Snapshot wire format constants. The format is little-endian throughout
// and canonical: for any byte string the decoder accepts, re-encoding the
// decoded state reproduces the input byte-for-byte (fuzz-tested). That
// property is what lets tests compare replicas by comparing snapshots.
const (
	snapMagic   = 0x41444350 // "ADCP"
	snapVersion = 1
)

// Capture checkpoints a quiescent switch into the canonical wire form.
func Capture(sw *core.Switch) ([]byte, error) {
	st, err := sw.ExportState()
	if err != nil {
		return nil, err
	}
	return EncodeState(st, sw.GeometryFingerprint()), nil
}

// Restore loads a checkpoint into a quiescent switch whose geometry
// fingerprint matches the snapshot's.
func Restore(sw *core.Switch, snap []byte) error {
	st, fp, err := DecodeState(snap)
	if err != nil {
		return err
	}
	if got := sw.GeometryFingerprint(); got != fp {
		return fmt.Errorf("ha: snapshot geometry %016x does not match switch %016x", fp, got)
	}
	return sw.RestoreState(st)
}

// EncodeState serializes a switch state with its geometry fingerprint into
// the canonical wire form. The state's slices must already be in canonical
// order (ExportState guarantees this).
func EncodeState(st *core.SwitchState, fingerprint uint64) []byte {
	w := &snapWriter{}
	w.u32(snapMagic)
	w.u16(snapVersion)
	w.u64(fingerprint)

	w.u32(uint32(len(st.DemuxNext)))
	for _, v := range st.DemuxNext {
		w.u32(uint32(v))
	}
	w.u64(st.Delivered)
	w.u64(st.DeliveredBytes)
	w.u64(st.Consumed)
	w.u64(st.BadRoutes)
	w.u32(uint32(len(st.TxPerPort)))
	for _, v := range st.TxPerPort {
		w.u64(v)
	}
	w.u64(st.CoflowSeq)
	w.u32(uint32(len(st.Coflows)))
	for _, e := range st.Coflows {
		w.u32(e.ID)
		w.u64(e.LastSeen)
	}
	w.u32(uint32(len(st.Evicted)))
	for _, id := range st.Evicted {
		w.u32(id)
	}
	w.u64(st.CoflowEvictions)
	w.u64(st.CoflowReadmissions)
	w.u64(st.LateDrops)

	w.pipes(st.Ingress)
	w.pipes(st.Central)
	w.pipes(st.Egress)

	if st.Merge == nil {
		w.u8(0)
	} else {
		w.u8(1)
		w.u32(uint32(len(st.Merge)))
		for _, cs := range st.Merge {
			w.u32(uint32(len(cs)))
			for _, c := range cs {
				w.u64(c.Flow)
				w.u64(c.LastRank)
			}
		}
	}

	w.tmCounters(st.TM1)
	w.tmCounters(st.TM2)
	return w.b
}

// DecodeState parses a canonical snapshot, returning the state and the
// geometry fingerprint it was captured from. Decoding enforces canonicity —
// strictly ascending sort keys, non-zero register cells, exact length, no
// trailing bytes — so every accepted input re-encodes byte-identically.
func DecodeState(b []byte) (*core.SwitchState, uint64, error) {
	r := &snapReader{b: b}
	if m := r.u32(); r.err == nil && m != snapMagic {
		return nil, 0, fmt.Errorf("ha: bad snapshot magic %08x", m)
	}
	if v := r.u16(); r.err == nil && v != snapVersion {
		return nil, 0, fmt.Errorf("ha: unsupported snapshot version %d", v)
	}
	fp := r.u64()

	st := &core.SwitchState{}
	n := r.count(4)
	st.DemuxNext = make([]int, 0, n)
	for i := 0; i < n; i++ {
		st.DemuxNext = append(st.DemuxNext, int(r.u32()))
	}
	st.Delivered = r.u64()
	st.DeliveredBytes = r.u64()
	st.Consumed = r.u64()
	st.BadRoutes = r.u64()
	n = r.count(8)
	st.TxPerPort = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		st.TxPerPort = append(st.TxPerPort, r.u64())
	}
	st.CoflowSeq = r.u64()
	n = r.count(12)
	st.Coflows = make([]core.CoflowEntry, 0, n)
	for i := 0; i < n; i++ {
		e := core.CoflowEntry{ID: r.u32(), LastSeen: r.u64()}
		if i > 0 && r.err == nil && e.ID <= st.Coflows[i-1].ID {
			r.fail("coflow directory not strictly ascending at %d", e.ID)
		}
		st.Coflows = append(st.Coflows, e)
	}
	n = r.count(4)
	st.Evicted = make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		id := r.u32()
		if i > 0 && r.err == nil && id <= st.Evicted[i-1] {
			r.fail("evicted set not strictly ascending at %d", id)
		}
		st.Evicted = append(st.Evicted, id)
	}
	st.CoflowEvictions = r.u64()
	st.CoflowReadmissions = r.u64()
	st.LateDrops = r.u64()

	st.Ingress = r.pipes()
	st.Central = r.pipes()
	st.Egress = r.pipes()

	switch flag := r.u8(); {
	case r.err != nil:
	case flag == 1:
		n = r.count(4)
		st.Merge = make([][]tm.FlowContract, 0, n)
		for i := 0; i < n; i++ {
			cn := r.count(16)
			cs := make([]tm.FlowContract, 0, cn)
			for j := 0; j < cn; j++ {
				c := tm.FlowContract{Flow: r.u64(), LastRank: r.u64()}
				if j > 0 && r.err == nil && c.Flow <= cs[j-1].Flow {
					r.fail("merge contracts not strictly ascending at flow %d", c.Flow)
				}
				cs = append(cs, c)
			}
			st.Merge = append(st.Merge, cs)
		}
	case flag != 0:
		r.fail("merge flag %d", flag)
	}

	st.TM1 = r.tmCounters()
	st.TM2 = r.tmCounters()

	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return st, fp, nil
}

type snapWriter struct{ b []byte }

func (w *snapWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *snapWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *snapWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

func (w *snapWriter) pipes(ps []core.PipeState) {
	w.u32(uint32(len(ps)))
	for _, p := range ps {
		w.u64(p.Counters.Packets)
		w.u64(p.Counters.Drops)
		w.u64(p.Counters.Recircs)
		w.u64(p.Counters.ParseErrors)
		w.u64(p.Counters.StageCycles)
		w.u32(uint32(len(p.Stages)))
		for i, cells := range p.Stages {
			w.u64(p.RegOps[i])
			w.u32(uint32(len(cells)))
			for _, c := range cells {
				w.u32(c.Idx)
				w.u64(c.Val)
			}
		}
	}
}

func (w *snapWriter) tmCounters(c tm.Counters) {
	w.u64(c.Enqueued)
	w.u64(c.Dequeued)
	w.u64(c.Dropped)
	w.u64(uint64(c.PeakBytes))
}

type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ha: snapshot offset %d: "+format, append([]any{r.off}, args...)...)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("truncated (%d bytes needed)", n)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *snapReader) u8() uint8 {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *snapReader) u16() uint16 {
	if s := r.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// count reads a u32 element count and bounds it against the bytes actually
// remaining (each element needs at least elemSize bytes), so a hostile
// length prefix cannot force a huge allocation.
func (r *snapReader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n*elemSize > len(r.b)-r.off || n < 0 {
		r.fail("count %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *snapReader) pipes() []core.PipeState {
	n := r.count(44) // per-pipe floor: counters (40) + stage count (4)
	ps := make([]core.PipeState, 0, n)
	for i := 0; i < n; i++ {
		var p core.PipeState
		p.Counters.Packets = r.u64()
		p.Counters.Drops = r.u64()
		p.Counters.Recircs = r.u64()
		p.Counters.ParseErrors = r.u64()
		p.Counters.StageCycles = r.u64()
		sn := r.count(12)
		p.RegOps = make([]uint64, 0, sn)
		p.Stages = make([][]core.RegCell, 0, sn)
		for s := 0; s < sn; s++ {
			p.RegOps = append(p.RegOps, r.u64())
			cn := r.count(12)
			cells := make([]core.RegCell, 0, cn)
			for c := 0; c < cn; c++ {
				cell := core.RegCell{Idx: r.u32(), Val: r.u64()}
				if r.err == nil && cell.Val == 0 {
					r.fail("stage %d: zero register cell %d", s, cell.Idx)
				}
				if c > 0 && r.err == nil && cell.Idx <= cells[c-1].Idx {
					r.fail("stage %d: cells not strictly ascending at %d", s, cell.Idx)
				}
				cells = append(cells, cell)
			}
			p.Stages = append(p.Stages, cells)
		}
		ps = append(ps, p)
	}
	return ps
}

func (r *snapReader) tmCounters() tm.Counters {
	return tm.Counters{
		Enqueued:  r.u64(),
		Dequeued:  r.u64(),
		Dropped:   r.u64(),
		PeakBytes: int(r.u64()),
	}
}
