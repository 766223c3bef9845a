package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rmt"
)

// GraphConfig sizes the in-network graph pattern-mining filter (Table 1,
// GraphINC-style): the switch holds the graph's edge set; hosts send
// candidate edges each BSP superstep; the switch keeps only candidates
// that are real edges and forwards them to the owner of their source
// vertex.
type GraphConfig struct {
	// Hosts partition the vertex set: vertex v is owned by host v % Hosts.
	Hosts int
	// EdgesPerPacket is the candidate batch width.
	EdgesPerPacket int
}

// Validate checks the configuration.
func (c GraphConfig) Validate() error {
	if c.Hosts <= 0 || c.EdgesPerPacket <= 0 {
		return fmt.Errorf("apps: bad graph config %+v", c)
	}
	return nil
}

// edgeKey packs an edge into a table key.
func edgeKey(e packet.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// graphProgram is the one-stage program both architectures run: graph
// packets go through graphFilter, everything else passes.
func graphProgram(name string, gc GraphConfig) *pipeline.Program {
	return &pipeline.Program{Name: name, Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			if ctx.Decoded.Base.Proto != packet.ProtoGraph {
				return nil
			}
			return graphFilter(st, ctx, gc)
		},
	}}
}

// graphFilter matches the candidate batch against the edge table and emits
// survivors grouped by owner host.
func graphFilter(st *pipeline.Stage, ctx *pipeline.Context, cfg GraphConfig) error {
	g := &ctx.Decoded.Graph
	keys := make([]uint64, len(g.Edges))
	for i, e := range g.Edges {
		keys[i] = edgeKey(e)
	}
	results := make([]mat.Result, len(keys))
	hits := make([]bool, len(keys))
	if _, err := st.Mem.LookupBatch(keys, results, hits); err != nil {
		return err
	}
	perOwner := make([][]packet.Edge, cfg.Hosts) // by owner, so emitted in host order
	for i, e := range g.Edges {
		if hits[i] {
			perOwner[int(e.Src)%cfg.Hosts] = append(perOwner[int(e.Src)%cfg.Hosts], e)
			st.Regs.Execute(mat.RegAdd, 0, 1) // matched-edge counter
		}
	}
	for owner, edges := range perOwner {
		if len(edges) == 0 {
			continue
		}
		res := ctx.Build(packet.Header{
			Proto:    packet.ProtoGraph,
			CoflowID: ctx.Decoded.Base.CoflowID,
			Flags:    packet.FlagFromSwch,
		}, &packet.GraphHeader{Round: g.Round, Edges: edges})
		ctx.Emit(res, owner)
	}
	ctx.Verdict = pipeline.VerdictConsume
	return nil
}

// GraphMineADCP is the ADCP deployment: the edge set is hash-partitioned
// by source vertex across central pipelines, candidates batch
// partition-aligned (PartitionEdges), and a whole batch matches in one
// traversal.
type GraphMineADCP struct {
	*core.Switch
	cfg GraphConfig
}

// NewGraphMineADCP builds the switch.
func NewGraphMineADCP(cfg core.Config, gc GraphConfig) (*GraphMineADCP, error) {
	if err := gc.Validate(); err != nil {
		return nil, err
	}
	P := cfg.CentralPipelines
	sw, err := core.New(cfg, core.Programs{Central: graphProgram("graphmine-central", gc)})
	if err != nil {
		return nil, err
	}
	sw.SetPartition(func(ctx *pipeline.Context) int {
		d := &ctx.Decoded
		if d.Base.Proto == packet.ProtoGraph && len(d.Graph.Edges) > 0 {
			return int(d.Graph.Edges[0].Src) % P
		}
		return int(d.Base.CoflowID) % P
	})
	return &GraphMineADCP{Switch: sw, cfg: gc}, nil
}

// InstallEdge loads one edge into its home partition.
func (g *GraphMineADCP) InstallEdge(e packet.Edge) error {
	cp := int(e.Src) % g.Config().CentralPipelines
	return g.Central(cp).Stage(0).Mem.Install(edgeKey(e), mat.Result{ActionID: 1})
}

// Matched returns the total matched-edge count across partitions.
func (g *GraphMineADCP) Matched() uint64 {
	var n uint64
	for i := 0; i < g.Config().CentralPipelines; i++ {
		n += g.Central(i).Stage(0).Regs.Peek(0)
	}
	return n
}

// SRAMUsed sums edge-table entries across partitions.
func (g *GraphMineADCP) SRAMUsed() int {
	n := 0
	for i := 0; i < g.Config().CentralPipelines; i++ {
		n += g.Central(i).Stage(0).Mem.SRAMUsed()
	}
	return n
}

// GraphMineRMT is the restructured RMT deployment: the edge table is
// installed in every ingress pipeline with EdgesPerPacket-fold replication
// (Figure 3) so a candidate batch matches in one traversal.
type GraphMineRMT struct {
	*rmt.Switch
	cfg GraphConfig
}

// NewGraphMineRMT builds the switch.
func NewGraphMineRMT(cfg rmt.Config, gc GraphConfig) (*GraphMineRMT, error) {
	if err := gc.Validate(); err != nil {
		return nil, err
	}
	if gc.EdgesPerPacket > cfg.Pipe.MAUsPerStage {
		return nil, fmt.Errorf("apps: %d edges/packet exceeds %d MAUs", gc.EdgesPerPacket, cfg.Pipe.MAUsPerStage)
	}
	sw, err := rmt.New(cfg, graphProgram("graphmine-rmt", gc), nil)
	if err != nil {
		return nil, err
	}
	for pl := 0; pl < cfg.Pipelines; pl++ {
		if err := sw.Ingress(pl).Stage(0).Mem.ConfigureReplication(gc.EdgesPerPacket); err != nil {
			return nil, err
		}
	}
	return &GraphMineRMT{Switch: sw, cfg: gc}, nil
}

// InstallEdge loads one edge into every ingress pipeline (each of which
// holds EdgesPerPacket replicated copies).
func (g *GraphMineRMT) InstallEdge(e packet.Edge) error {
	for pl := 0; pl < g.Config().Pipelines; pl++ {
		if err := g.Ingress(pl).Stage(0).Mem.Install(edgeKey(e), mat.Result{ActionID: 1}); err != nil {
			return err
		}
	}
	return nil
}

// SRAMUsed sums edge-table entries across pipelines (including replicas).
func (g *GraphMineRMT) SRAMUsed() int {
	n := 0
	for pl := 0; pl < g.Config().Pipelines; pl++ {
		n += g.Ingress(pl).Stage(0).Mem.SRAMUsed()
	}
	return n
}

// PartitionEdges regroups candidate edges so each batch is partition-pure
// for src%partitions placement, capped at maxBatch.
func PartitionEdges(edges []packet.Edge, partitions, maxBatch int) [][]packet.Edge {
	return partition(edges, func(e packet.Edge) uint32 { return e.Src }, partitions, maxBatch)
}
