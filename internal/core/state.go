package core

// Checkpointable switch state. The paper's premise is that coflow state
// lives *in* the switch; this file makes that state an explicit, extractable
// structure (in the spirit of Open Packet Processor's per-flow context) so
// the HA layer can serialize it, ship it to a standby, and restore it after
// a crash. A checkpoint captures everything a packet's processing can
// observe or mutate:
//
//   - the coflow state directory (admission view, recency order, evictions),
//   - per-stage register files of every pipeline (the data-plane state
//     programs aggregate into), stored sparsely (non-zero cells only),
//   - TM1 merge sortedness contracts (per-flow last accepted rank),
//   - every TM-visible and switch-visible counter.
//
// Match-table contents are deliberately excluded: they are
// control-plane installed configuration, not packet-mutated state — a
// standby is built by the same constructor with the same programs, so its
// tables are already identical.
//
// Checkpoints are taken at packet boundaries (the switch quiescent, both
// TMs drained), so no in-flight packets are ever captured.

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/pipeline"
	"repro/internal/tm"
)

// RegCell is one non-zero register cell: sparse storage keeps checkpoints
// proportional to live state, not geometry.
type RegCell struct {
	Idx uint32
	Val uint64
}

// PipeState captures one pipeline: traversal counters, per-stage RMW op
// counts, and per-stage non-zero register cells in ascending index order.
type PipeState struct {
	Counters pipeline.Counters
	RegOps   []uint64
	Stages   [][]RegCell
}

// CoflowEntry is one coflow directory row: the coflow and the logical
// clock of its most recent packet.
type CoflowEntry struct {
	ID       uint32
	LastSeen uint64
}

// SwitchState is the complete checkpointable state of a core.Switch. All
// slices use deterministic orders (ascending IDs/indexes) so equal switch
// states export equal structures regardless of map iteration.
type SwitchState struct {
	DemuxNext []int

	Delivered      uint64
	DeliveredBytes uint64
	Consumed       uint64
	BadRoutes      uint64
	TxPerPort      []uint64

	CoflowSeq          uint64
	Coflows            []CoflowEntry
	Evicted            []uint32
	CoflowEvictions    uint64
	CoflowReadmissions uint64
	LateDrops          uint64

	Ingress []PipeState
	Central []PipeState
	Egress  []PipeState

	Merge [][]tm.FlowContract // nil when merge mode is off

	TM1 tm.Counters
	TM2 tm.Counters
}

// Quiescent reports whether the switch is at a packet boundary: both TMs
// drained and (in merge mode) no packets queued in any merge. Checkpoints
// are only valid at such a boundary.
func (s *Switch) Quiescent() error {
	if n := s.tm1.Pending(); n != 0 {
		return fmt.Errorf("core: TM1 holds %d packets", n)
	}
	if n := s.tm2.Pending(); n != 0 {
		return fmt.Errorf("core: TM2 holds %d packets", n)
	}
	for i, m := range s.tm1Merge {
		if n := m.Len(); n != 0 {
			return fmt.Errorf("core: merge %d holds %d packets", i, n)
		}
	}
	return nil
}

// ExportState captures the switch's complete packet-mutated state. The
// switch must be quiescent.
func (s *Switch) ExportState() (*SwitchState, error) {
	if err := s.Quiescent(); err != nil {
		return nil, err
	}
	st := &SwitchState{
		DemuxNext:          append([]int(nil), s.demuxNext...),
		Delivered:          s.delivered,
		DeliveredBytes:     s.deliveredBytes,
		Consumed:           s.consumed,
		BadRoutes:          s.badRoutes,
		TxPerPort:          append([]uint64(nil), s.txPerPort...),
		CoflowSeq:          s.coflowSeq,
		CoflowEvictions:    s.coflowEvictions,
		CoflowReadmissions: s.coflowReadmissions,
		LateDrops:          s.lateDrops,
		TM1:                s.tm1.Counters(),
		TM2:                s.tm2.Counters(),
	}
	// Coflow directory and eviction set come from maps; sort for a
	// deterministic export order.
	st.Coflows = make([]CoflowEntry, 0, len(s.coflowLast))
	for id, seq := range s.coflowLast {
		st.Coflows = append(st.Coflows, CoflowEntry{ID: id, LastSeen: seq})
	}
	sortCoflowEntries(st.Coflows)
	st.Evicted = make([]uint32, 0, len(s.evicted))
	for id := range s.evicted {
		st.Evicted = append(st.Evicted, id)
	}
	sortUint32s(st.Evicted)

	for _, p := range s.ingress {
		st.Ingress = append(st.Ingress, exportPipe(p))
	}
	for _, p := range s.central {
		st.Central = append(st.Central, exportPipe(p))
	}
	for _, p := range s.egress {
		st.Egress = append(st.Egress, exportPipe(p))
	}
	if s.tm1Merge != nil {
		st.Merge = make([][]tm.FlowContract, len(s.tm1Merge))
		for i, m := range s.tm1Merge {
			st.Merge[i] = m.Contract()
		}
	}
	return st, nil
}

// RestoreState loads a checkpoint into the switch, replacing all
// packet-mutated state. The switch must be quiescent and its geometry
// (ports, pipelines, stages, register sizes, merge mode) must match the
// checkpoint's origin.
func (s *Switch) RestoreState(st *SwitchState) error {
	if err := s.Quiescent(); err != nil {
		return err
	}
	switch {
	case len(st.DemuxNext) != len(s.demuxNext):
		return fmt.Errorf("core: restore %d demux slots into %d ports", len(st.DemuxNext), len(s.demuxNext))
	case len(st.TxPerPort) != len(s.txPerPort):
		return fmt.Errorf("core: restore %d tx counters into %d ports", len(st.TxPerPort), len(s.txPerPort))
	case len(st.Ingress) != len(s.ingress):
		return fmt.Errorf("core: restore %d ingress pipes into %d", len(st.Ingress), len(s.ingress))
	case len(st.Central) != len(s.central):
		return fmt.Errorf("core: restore %d central pipes into %d", len(st.Central), len(s.central))
	case len(st.Egress) != len(s.egress):
		return fmt.Errorf("core: restore %d egress pipes into %d", len(st.Egress), len(s.egress))
	case (st.Merge != nil) != (s.tm1Merge != nil):
		return fmt.Errorf("core: merge mode mismatch (snapshot %v, switch %v)", st.Merge != nil, s.tm1Merge != nil)
	case st.Merge != nil && len(st.Merge) != len(s.tm1Merge):
		return fmt.Errorf("core: restore %d merge contracts into %d merges", len(st.Merge), len(s.tm1Merge))
	}
	for i, p := range s.ingress {
		if err := restorePipe(p, st.Ingress[i]); err != nil {
			return fmt.Errorf("core: ingress %d: %w", i, err)
		}
	}
	for i, p := range s.central {
		if err := restorePipe(p, st.Central[i]); err != nil {
			return fmt.Errorf("core: central %d: %w", i, err)
		}
	}
	for i, p := range s.egress {
		if err := restorePipe(p, st.Egress[i]); err != nil {
			return fmt.Errorf("core: egress %d: %w", i, err)
		}
	}
	if st.Merge != nil {
		// Merge contracts require an empty merge; the switch is quiescent,
		// but flows may carry stale contracts from before the restore, so
		// rebuild each merge from scratch.
		for i := range s.tm1Merge {
			s.tm1Merge[i] = tm.NewMergeTM()
			if err := s.tm1Merge[i].RestoreContract(st.Merge[i]); err != nil {
				return fmt.Errorf("core: merge %d: %w", i, err)
			}
		}
	}
	if err := s.tm1.RestoreCounters(st.TM1); err != nil {
		return err
	}
	if err := s.tm2.RestoreCounters(st.TM2); err != nil {
		return err
	}
	copy(s.demuxNext, st.DemuxNext)
	s.delivered = st.Delivered
	s.deliveredBytes = st.DeliveredBytes
	s.consumed = st.Consumed
	s.badRoutes = st.BadRoutes
	copy(s.txPerPort, st.TxPerPort)
	s.coflowSeq = st.CoflowSeq
	s.coflowLast = make(map[uint32]uint64, len(st.Coflows))
	for _, e := range st.Coflows {
		s.coflowLast[e.ID] = e.LastSeen
	}
	s.evicted = make(map[uint32]struct{}, len(st.Evicted))
	for _, id := range st.Evicted {
		s.evicted[id] = struct{}{}
	}
	s.coflowEvictions = st.CoflowEvictions
	s.coflowReadmissions = st.CoflowReadmissions
	s.lateDrops = st.LateDrops
	return nil
}

// GeometryFingerprint hashes the state-relevant geometry of the switch.
// Snapshots embed it so a checkpoint cannot be restored into a switch of a
// different shape.
func (s *Switch) GeometryFingerprint() uint64 {
	h := fnv.New64a()
	w := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	w(uint64(s.cfg.Ports), uint64(s.cfg.DemuxFactor),
		uint64(s.cfg.CentralPipelines), uint64(s.cfg.EgressPipelines),
		uint64(s.cfg.Pipe.Stages), uint64(s.cfg.Pipe.RegisterCellsPerStage))
	if s.tm1Merge != nil {
		w(1)
	} else {
		w(0)
	}
	return h.Sum64()
}

func exportPipe(p *pipeline.Pipeline) PipeState {
	ps := PipeState{Counters: p.Counters()}
	for i := 0; i < p.NumStages(); i++ {
		regs := p.Stage(i).Regs
		ps.RegOps = append(ps.RegOps, regs.Ops())
		var cells []RegCell
		for idx := 0; idx < regs.Materialized(); idx++ {
			if v := regs.Peek(idx); v != 0 {
				cells = append(cells, RegCell{Idx: uint32(idx), Val: v})
			}
		}
		ps.Stages = append(ps.Stages, cells)
	}
	return ps
}

func restorePipe(p *pipeline.Pipeline, ps PipeState) error {
	if len(ps.RegOps) != p.NumStages() || len(ps.Stages) != p.NumStages() {
		return fmt.Errorf("snapshot has %d/%d stages, pipeline has %d",
			len(ps.RegOps), len(ps.Stages), p.NumStages())
	}
	for i := 0; i < p.NumStages(); i++ {
		regs := p.Stage(i).Regs
		last := -1
		for _, c := range ps.Stages[i] {
			if int(c.Idx) <= last || int(c.Idx) >= regs.Size() {
				return fmt.Errorf("stage %d: cell index %d out of order or range", i, c.Idx)
			}
			last = int(c.Idx)
		}
		// Only the exported cells are written: a stage without any stays
		// unmaterialized, one with some grows as its RMWs would grow it.
		regs.Reset()
		for _, c := range ps.Stages[i] {
			regs.Poke(int(c.Idx), c.Val)
		}
		regs.SetOps(ps.RegOps[i])
	}
	p.RestoreCounters(ps.Counters)
	return nil
}

func sortCoflowEntries(es []CoflowEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}

func sortUint32s(vs []uint32) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}
