package apps

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rmt"
)

// DBConfig sizes the filter-aggregate-reshuffle pipeline (Table 1, database
// analytics row): sources scan and filter locally, the switch aggregates
// group-by partials per key, and aggregated partitions are reshuffled to
// destination hosts.
type DBConfig struct {
	// KeySpace bounds the group-by keys: [0, KeySpace).
	KeySpace uint32
	// DestHosts receive the aggregated partitions; key k goes to
	// DestHosts[k % len(DestHosts)].
	DestHosts []int
	// TuplesPerPacket is the source batch width.
	TuplesPerPacket int
}

// Validate checks the configuration.
func (c DBConfig) Validate() error {
	if c.KeySpace == 0 || len(c.DestHosts) == 0 || c.TuplesPerPacket <= 0 {
		return fmt.Errorf("apps: bad DB config %+v", c)
	}
	return nil
}

func (c DBConfig) destOf(key uint32) int {
	return c.DestHosts[int(key)%len(c.DestHosts)]
}

// FlushPacket builds the coordinator's control packet that makes partition
// state flush its aggregates (sent once per partition after all data).
func FlushPacket(coflowID uint32, query uint16, partition int) *packet.Packet {
	p := packet.Build(packet.Header{
		Proto:    packet.ProtoDB,
		CoflowID: coflowID,
		FlowID:   uint32(partition),
	}, &packet.DBHeader{Query: query, Stage: 1})
	return p
}

// dbAggregate adds a batch of tuples into per-key count cells
// (cell = key / partitions, keys pre-partitioned by key % partitions).
func dbAggregate(st *pipeline.Stage, tuples []packet.DBTuple, partitions int) {
	for _, tp := range tuples {
		st.Regs.Execute(mat.RegAdd, int(tp.Key)/partitions, uint64(tp.Measure))
	}
}

// dbFlush scans the partition's cells and emits aggregated tuples to their
// destination hosts, batched per destination. It models the control-plane
// register sweep real deployments perform at query end.
func dbFlush(st *pipeline.Stage, ctx *pipeline.Context, cfg DBConfig, partition, partitions int) {
	perDest := make(map[int][]packet.DBTuple)
	maxCell := int(cfg.KeySpace) / partitions
	for cell := 0; cell <= maxCell; cell++ {
		key := uint32(cell*partitions + partition)
		if key >= cfg.KeySpace {
			continue
		}
		count := st.Regs.Peek(cell)
		if count == 0 {
			continue
		}
		d := cfg.destOf(key)
		perDest[d] = append(perDest[d], packet.DBTuple{Key: key, Measure: uint32(count)})
	}
	dests := make([]int, 0, len(perDest))
	for d := range perDest {
		dests = append(dests, d)
	}
	sort.Ints(dests) // map order would make the emission order nondeterministic
	for _, dest := range dests {
		tuples := perDest[dest]
		for len(tuples) > 0 {
			n := cfg.TuplesPerPacket
			if n > len(tuples) {
				n = len(tuples)
			}
			res := ctx.Build(packet.Header{
				Proto:    packet.ProtoDB,
				CoflowID: ctx.Decoded.Base.CoflowID,
				Flags:    packet.FlagFromSwch,
			}, &packet.DBHeader{Query: ctx.Decoded.DB.Query, Stage: 2, Tuples: tuples[:n]})
			ctx.Emit(res, dest)
			tuples = tuples[n:]
		}
	}
}

// NewDBShuffleADCP builds the ADCP deployment: TM1 partitions tuples by
// key % CentralPipelines (sources batch partition-aligned via
// PartitionTuples), the central program aggregates a whole batch per
// traversal, and flush emits each partition's aggregates to any
// destination port.
func NewDBShuffleADCP(cfg core.Config, db DBConfig) (*core.Switch, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	P := cfg.CentralPipelines
	if int(db.KeySpace)/P+1 > cfg.Pipe.RegisterCellsPerStage {
		return nil, fmt.Errorf("apps: keyspace %d needs more register cells than %d", db.KeySpace, cfg.Pipe.RegisterCellsPerStage)
	}
	// Programs are shared across central pipelines; derive the partition
	// from the packet instead of a per-pipeline closure: data packets
	// carry partition-pure tuples (key % P is constant across a packet),
	// flush packets carry the partition in FlowID.
	central := &pipeline.Program{
		Name: "dbshuffle-central",
		Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				if ctx.Decoded.Base.Proto != packet.ProtoDB {
					return nil
				}
				switch ctx.Decoded.DB.Stage {
				case 0:
					dbAggregate(st, ctx.Decoded.DB.Tuples, P)
					ctx.Verdict = pipeline.VerdictConsume
				case 1:
					dbFlush(st, ctx, db, int(ctx.Decoded.Base.FlowID), P)
					ctx.Verdict = pipeline.VerdictConsume
				}
				return nil
			},
		},
	}
	sw, err := core.New(cfg, core.Programs{Central: central})
	if err != nil {
		return nil, err
	}
	sw.SetPartition(func(ctx *pipeline.Context) int {
		d := &ctx.Decoded
		if d.Base.Proto == packet.ProtoDB {
			if d.DB.Stage == 1 {
				return int(d.Base.FlowID) % P
			}
			if len(d.DB.Tuples) > 0 {
				return int(d.DB.Tuples[0].Key) % P
			}
		}
		return int(d.Base.CoflowID) % P
	})
	return sw, nil
}

// NewDBShuffleRMT builds the restructured RMT deployment: all aggregation
// state lives in the last ingress pipeline (reached via loopback from the
// others), and each traversal aggregates at most Stages-1 tuples — wider
// batches recirculate. The flush sweep runs in that pipeline and the
// result emissions reach any port through the TM.
func NewDBShuffleRMT(cfg rmt.Config, db DBConfig) (*rmt.Switch, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	stages := cfg.Pipe.Stages
	usable := stages - 1
	if usable < 1 {
		return nil, fmt.Errorf("apps: no usable stages")
	}
	if int(db.KeySpace)+1 > cfg.Pipe.RegisterCellsPerStage {
		return nil, fmt.Errorf("apps: keyspace %d exceeds register cells", db.KeySpace)
	}
	ppp := cfg.Ports / cfg.Pipelines
	loopback := cfg.Ports - 1
	aggPipe := loopback / ppp

	funcs := make([]pipeline.StageFunc, stages)
	funcs[0] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
		if ctx.Decoded.Base.Proto != packet.ProtoDB {
			return nil
		}
		if ctx.Pkt.IngressPort/ppp != aggPipe {
			ctx.Egress = loopback
			ctx.Scratch[1] = 1
			return nil
		}
		ctx.Scratch[1] = 0
		if ctx.Decoded.DB.Stage == 1 {
			// RMT has no clean in-dataplane sweep: one key's counts are
			// spread across the stages that happened to aggregate it, so
			// the coordinator must read registers through the control
			// plane (DBAggregatesRMT) and reshuffle results itself — the
			// "application complexity cost" of §2. The flush packet is
			// just consumed.
			ctx.Verdict = pipeline.VerdictConsume
		}
		return nil
	}
	for s := 1; s < stages; s++ {
		funcs[s] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
			d := &ctx.Decoded
			if d.Base.Proto != packet.ProtoDB || d.DB.Stage != 0 || ctx.Scratch[1] == 1 {
				return nil
			}
			i := ctx.ElementOffset + s - 1
			if i < len(d.DB.Tuples) {
				tp := d.DB.Tuples[i]
				// Scalar: one stateful update per stage per traversal.
				if _, err := st.RegisterRMW(mat.RegAdd, int(tp.Key), uint64(tp.Measure)); err != nil {
					return err
				}
			}
			if s == stages-1 {
				if ctx.ElementOffset+usable < len(d.DB.Tuples) {
					ctx.ElementOffset += usable
					ctx.Verdict = pipeline.VerdictRecirculate
				} else {
					ctx.Verdict = pipeline.VerdictConsume
				}
			}
			return nil
		}
	}
	sw, err := rmt.New(cfg, &pipeline.Program{Name: "dbshuffle-rmt", Funcs: funcs}, nil)
	if err != nil {
		return nil, err
	}
	if err := sw.MarkRecirculationPort(loopback); err != nil {
		return nil, err
	}
	return sw, nil
}

// DBAggregatesRMT reads the aggregated group-by counts out of the RMT
// aggregation pipeline via the control plane: a key's total is the sum of
// its cell across ALL stages, because each packet aggregated tuple i at
// stage 1+(i mod usable) — the same key lands in different stages on
// different packets.
func DBAggregatesRMT(sw *rmt.Switch, db DBConfig) map[uint32]uint32 {
	cfg := sw.Config()
	aggPipe := (cfg.Ports - 1) / (cfg.Ports / cfg.Pipelines)
	out := make(map[uint32]uint32)
	pl := sw.Ingress(aggPipe)
	for key := uint32(0); key < db.KeySpace; key++ {
		var total uint64
		for s := 1; s < pl.NumStages(); s++ {
			total += pl.Stage(s).Regs.Peek(int(key))
		}
		if total > 0 {
			out[key] = uint32(total)
		}
	}
	return out
}

// DBAggregatesADCP reads the per-partition aggregates (for verification
// against the flushed result packets).
func DBAggregatesADCP(sw *core.Switch, db DBConfig) map[uint32]uint32 {
	P := sw.Config().CentralPipelines
	out := make(map[uint32]uint32)
	for p := 0; p < P; p++ {
		st := sw.Central(p).Stage(0)
		for cell := 0; cell <= int(db.KeySpace)/P; cell++ {
			key := uint32(cell*P + p)
			if key >= db.KeySpace {
				continue
			}
			if v := st.Regs.Peek(cell); v > 0 {
				out[key] = uint32(v)
			}
		}
	}
	return out
}

// PartitionTuples regroups tuples so each batch is partition-pure for a
// key%partitions placement, capped at maxBatch (the map-side partitioning
// a shuffle producer performs).
func PartitionTuples(tuples []packet.DBTuple, partitions, maxBatch int) [][]packet.DBTuple {
	return partition(tuples, func(tp packet.DBTuple) uint32 { return tp.Key }, partitions, maxBatch)
}

// partition regroups items into batches that are partition-pure for a
// key%partitions placement, capped at maxBatch, in partition order.
func partition[T any](items []T, key func(T) uint32, partitions, maxBatch int) [][]T {
	byPart := make([][]T, partitions)
	for _, it := range items {
		i := int(key(it)) % partitions
		byPart[i] = append(byPart[i], it)
	}
	var out [][]T
	for _, batch := range byPart {
		for len(batch) > maxBatch {
			out = append(out, batch[:maxBatch])
			batch = batch[maxBatch:]
		}
		if len(batch) > 0 {
			out = append(out, batch)
		}
	}
	return out
}
