package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
	"repro/internal/pipeline"
	"repro/internal/rmt"
	"repro/internal/tm"
)

// KVConfig sizes an in-network key/value cache (NetCache-style, §1), with
// the multi-key batching of §3.2.
type KVConfig struct {
	// KeysPerPacket is the batch width clients use.
	KeysPerPacket int
	// CacheEntries is the number of (key, value) pairs to serve from the
	// switch.
	CacheEntries int
}

// Validate checks the configuration.
func (c KVConfig) Validate() error {
	if c.KeysPerPacket <= 0 || c.CacheEntries <= 0 {
		return fmt.Errorf("apps: bad KV config %+v", c)
	}
	return nil
}

// kvStage is the cache's stage program on either architecture. Its lookup
// buffers are made here, once, for the widest batch a stage can match:
// traversals are synchronous and hit values are copied into the packet's
// pairs before the stage returns, so one set serves every packet of the
// switch. ADCP passes the array container the parser lifts the batch into
// and counts per-key hits and misses in register cells 0 and 1; RMT passes
// phv.Invalid, reads its keys from the decoded pairs and counts nothing.
func kvStage(pipe pipeline.Config, keysID phv.FieldID) pipeline.StageFunc {
	n := max(pipe.MAUsPerStage, pipe.MemoryClockMult)
	keyBuf, results, hits := make([]uint64, n), make([]mat.Result, n), make([]bool, n)
	return func(st *pipeline.Stage, ctx *pipeline.Context) error {
		if ctx.Decoded.Base.Proto != packet.ProtoKV {
			return nil
		}
		kvh := &ctx.Decoded.KV
		switch kvh.Op {
		case packet.KVGet:
			if len(kvh.Pairs) > n {
				return mat.ErrBatchTooWide
			}
			keys := keyBuf[:len(kvh.Pairs)]
			for i, p := range kvh.Pairs {
				keys[i] = uint64(p.Key)
			}
			if keysID != phv.Invalid {
				// The stage consumes the batch from the PHV array (capped
				// at the array width — wider batches would need another
				// container).
				for i, k := range ctx.PHV().Array(keysID) {
					keys[i] = uint64(k)
				}
			}
			if _, err := st.Mem.LookupBatch(keys, results, hits); err != nil {
				return err
			}
			var hit, miss uint64
			for i := range keys {
				if hits[i] {
					kvh.Pairs[i].Value = uint32(results[i].Params[0])
					hit++
				} else {
					miss++
				}
			}
			if keysID != phv.Invalid {
				st.Regs.Execute(mat.RegAdd, 0, hit)
				st.Regs.Execute(mat.RegAdd, 1, miss)
			}
			kvh.Op = packet.KVHit // a reply is a hit only when every key hit
			if miss > 0 {
				kvh.Op = packet.KVMiss
			}
		case packet.KVPut:
			for _, p := range kvh.Pairs {
				if err := st.Mem.Install(uint64(p.Key), mat.Result{Params: [2]uint64{uint64(p.Value), 0}}); err != nil {
					return err
				}
			}
			kvh.Op = packet.KVHit
		}
		ctx.Modified = true
		ctx.Egress = int(ctx.Decoded.Base.SrcPort) // reply to client
		return nil
	}
}

// KVCacheADCP is an ADCP switch serving a partitioned multi-key cache.
type KVCacheADCP struct {
	*core.Switch
	cfg  KVConfig
	part *tm.HashPartitioner
}

// NewKVCacheADCP builds the switch: TM1 partitions request packets by the
// hash of their first key (clients batch partition-aligned, see
// PartitionKV), and the central program matches the whole batch against
// the partition's shared cache table in one traversal. The batch keys
// arrive through a PHV array container filled by the PARSER (§3.2's
// "array processing techniques in packet parsing"), not by program code.
func NewKVCacheADCP(cfg core.Config, kv KVConfig) (*KVCacheADCP, error) {
	if err := kv.Validate(); err != nil {
		return nil, err
	}
	layout := phv.NewLayout(cfg.Pipe.PHVBudget)
	keysID, err := layout.AllocArray("kv_keys")
	if err != nil {
		return nil, fmt.Errorf("apps: KV cache needs an array container: %w", err)
	}
	part := tm.NewHashPartitioner(cfg.CentralPipelines)
	central := &pipeline.Program{
		Name:   "kvcache-central",
		Layout: layout,
		Funcs:  []pipeline.StageFunc{kvStage(cfg.Pipe, keysID)},
	}
	sw, err := core.New(cfg, core.Programs{Central: central})
	if err != nil {
		return nil, err
	}
	perPart := (kv.CacheEntries + cfg.CentralPipelines - 1) / cfg.CentralPipelines
	for i := 0; i < cfg.CentralPipelines; i++ {
		sw.Central(i).Stage(0).Mem.Reserve(perPart)
	}
	sw.SetPartition(func(ctx *pipeline.Context) int {
		if ctx.Decoded.Base.Proto == packet.ProtoKV && len(ctx.Decoded.KV.Pairs) > 0 {
			return part.Place(uint64(ctx.Decoded.KV.Pairs[0].Key))
		}
		return int(ctx.Decoded.Base.CoflowID) % cfg.CentralPipelines
	})
	return &KVCacheADCP{Switch: sw, cfg: kv, part: part}, nil
}

// Install loads a cache entry into its home partition. SRAM cost: one
// entry, once.
func (k *KVCacheADCP) Install(key, value uint32) error {
	cp := k.part.Place(uint64(key))
	return k.Central(cp).Stage(0).Mem.Install(uint64(key), mat.Result{Params: [2]uint64{uint64(value), 0}})
}

// PartitionOf returns the central pipeline that owns a key.
func (k *KVCacheADCP) PartitionOf(key uint32) int { return k.part.Place(uint64(key)) }

// SRAMUsed sums cache SRAM entries across the global area.
func (k *KVCacheADCP) SRAMUsed() int {
	n := 0
	for i := 0; i < k.Config().CentralPipelines; i++ {
		n += k.Central(i).Stage(0).Mem.SRAMUsed()
	}
	return n
}

// Hits returns the aggregate per-key hit counter.
func (k *KVCacheADCP) Hits() uint64 {
	var n uint64
	for i := 0; i < k.Config().CentralPipelines; i++ {
		n += k.Central(i).Stage(0).Regs.Peek(0)
	}
	return n
}

// Misses returns the aggregate per-key miss counter.
func (k *KVCacheADCP) Misses() uint64 {
	var n uint64
	for i := 0; i < k.Config().CentralPipelines; i++ {
		n += k.Central(i).Stage(0).Regs.Peek(1)
	}
	return n
}

// KVCacheRMT is the restructured RMT deployment: the cache lives in every
// ingress pipeline (clients connect anywhere), and each stage-0 memory is
// replicated KeysPerPacket-fold so a batch can match in one traversal —
// Figure 3's cost, paid in SRAM: entries × replication × pipelines.
type KVCacheRMT struct {
	*rmt.Switch
	cfg KVConfig
}

// NewKVCacheRMT builds the switch. The per-copy table capacity shrinks by
// the replication factor; an Install that no longer fits returns
// mat.ErrTableFull — the capacity loss the paper plots.
func NewKVCacheRMT(cfg rmt.Config, kv KVConfig) (*KVCacheRMT, error) {
	if err := kv.Validate(); err != nil {
		return nil, err
	}
	if kv.KeysPerPacket > cfg.Pipe.MAUsPerStage {
		return nil, fmt.Errorf("apps: %d keys/packet exceeds %d MAUs", kv.KeysPerPacket, cfg.Pipe.MAUsPerStage)
	}
	ingress := &pipeline.Program{
		Name:  "kvcache-rmt",
		Funcs: []pipeline.StageFunc{kvStage(cfg.Pipe, phv.Invalid)},
	}
	sw, err := rmt.New(cfg, ingress, nil)
	if err != nil {
		return nil, err
	}
	for pl := 0; pl < cfg.Pipelines; pl++ {
		if err := sw.Ingress(pl).Stage(0).Mem.ConfigureReplication(kv.KeysPerPacket); err != nil {
			return nil, err
		}
		sw.Ingress(pl).Stage(0).Mem.Reserve(kv.CacheEntries)
	}
	return &KVCacheRMT{Switch: sw, cfg: kv}, nil
}

// Install loads a cache entry into EVERY ingress pipeline (clients may
// arrive on any of them), each of which holds KeysPerPacket replicated
// copies. SRAM cost: pipelines × replication entries.
func (k *KVCacheRMT) Install(key, value uint32) error {
	for pl := 0; pl < k.Config().Pipelines; pl++ {
		if err := k.Ingress(pl).Stage(0).Mem.Install(uint64(key), mat.Result{Params: [2]uint64{uint64(value), 0}}); err != nil {
			return err
		}
	}
	return nil
}

// SRAMUsed sums cache SRAM entries across all ingress pipelines.
func (k *KVCacheRMT) SRAMUsed() int {
	n := 0
	for pl := 0; pl < k.Config().Pipelines; pl++ {
		n += k.Ingress(pl).Stage(0).Mem.SRAMUsed()
	}
	return n
}

// EffectiveCapacity returns distinct cache entries one pipeline can hold.
func (k *KVCacheRMT) EffectiveCapacity() int {
	return k.Ingress(0).Stage(0).Mem.EffectiveCapacity()
}

// PartitionKV regroups a batch of pairs so each output batch contains only
// keys of one ADCP partition (what a partition-aware client library does).
// Batches are capped at maxBatch pairs and come in partition order, each
// partition's pairs in input order. pairs is copied once: the batches share
// one new slice, which the caller owns, and each is cut from it with
// cap == len, so an append to one reallocates instead of overwriting the
// next.
func PartitionKV(pairs []packet.KVPair, partitions, maxBatch int) [][]packet.KVPair {
	part := tm.NewHashPartitioner(partitions)
	// A counting sort: pairs per partition, then where each partition's
	// next pair goes. The counts stay on the stack up to 16 partitions.
	var small [16]int
	next := small[:]
	if partitions > len(small) {
		next = make([]int, partitions)
	}
	next = next[:partitions]
	for _, p := range pairs {
		next[part.Place(uint64(p.Key))]++
	}
	batches, start := 0, 0
	for i, n := range next {
		next[i] = start
		start += n
		batches += (n + maxBatch - 1) / maxBatch
	}
	sorted := make([]packet.KVPair, len(pairs))
	for _, p := range pairs {
		i := part.Place(uint64(p.Key))
		sorted[next[i]] = p
		next[i]++
	}
	// next[i] is now where partition i ends and partition i+1 starts.
	out := make([][]packet.KVPair, 0, batches)
	start = 0
	for _, end := range next {
		for start < end {
			stop := min(start+maxBatch, end)
			out = append(out, sorted[start:stop:stop])
			start = stop
		}
	}
	return out
}
