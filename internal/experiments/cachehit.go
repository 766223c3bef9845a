package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// CacheHitRow is one point of the cache-effectiveness experiment.
type CacheHitRow struct {
	CacheEntries int
	Skew         float64
	HitRate      float64
	Hits         uint64
	Misses       uint64
}

// CacheHit quantifies why the in-network KV cache (Table 1's coordination/
// caching row, NetCache) works at all: under Zipf-skewed GETs, caching a
// small hot set on the switch absorbs most of the load. Sweeps cache size
// at two skews on the live ADCP multi-key cache.
func CacheHit(cacheSizes []int, skews []float64) (*stats.Table, []CacheHitRow, error) {
	if len(cacheSizes) == 0 {
		cacheSizes = []int{64, 256, 1024}
	}
	if len(skews) == 0 {
		skews = []float64{0.9, 1.2}
	}
	const keySpace = 4096
	const keysPerPacket = 8
	cfg := core.DefaultConfig()
	cfg.Ports, cfg.DemuxFactor, cfg.CentralPipelines, cfg.EgressPipelines = 8, 1, 4, 2
	cfg.Pipe.Stages, cfg.Pipe.TableEntriesPerStage = 2, keySpace
	t := newTable(telemetry.Hub().Reg(),
		fmt.Sprintf("cache effectiveness: hit rate vs on-switch cache size (keyspace %d, Zipf GETs)", keySpace),
		col{head: "cache entries", label: "entries"}, col{head: "zipf skew", cell: f("%.1f"), label: "skew"},
		col{head: "hit rate", cell: pct("%.1f%%"), metric: "exp.cachehit.hit_rate"}, col{head: "hits"},
		col{head: "misses"})
	var rows []CacheHitRow
	// Every point's packets come out of one arena, encoded from one header.
	var arena packet.Arena
	kv := packet.KVHeader{Op: packet.KVGet}
	type request struct {
		pkt  *packet.Packet
		port int
	}
	for _, skew := range skews {
		// The requests depend on the skew only: generate them, regroup them
		// per partition as the app's tests batch, and build their packets
		// once for all sizes. Every size's switch is handed the same
		// packets: a switch never writes bytes it was handed (the ownership
		// rule of packet.Arena), and the port fields it sets are reset to
		// what Build left before each replay.
		injs, err := workload.KVZipf(workload.KVParams{
			CoflowID: 1, Clients: 4, OpsPerClient: 250,
			KeysPerPacket: keysPerPacket, KeySpace: keySpace, Seed: 77,
		}, skew)
		if err != nil {
			return nil, nil, err
		}
		var reqs []request
		var d packet.Decoded
		for _, inj := range injs {
			if err := d.DecodePacket(inj.Pkt); err != nil {
				return nil, nil, err
			}
			for _, batch := range apps.PartitionKV(d.KV.Pairs, cfg.CentralPipelines, keysPerPacket) {
				kv.Pairs = batch
				// KV's source port is its client, which is inj.Src.
				reqs = append(reqs, request{arena.Build(packet.Header{
					Proto: packet.ProtoKV, SrcPort: uint16(inj.Src), CoflowID: 1,
				}, &kv), inj.Src})
			}
		}
		for _, size := range cacheSizes {
			sw, err := apps.NewKVCacheADCP(cfg, apps.KVConfig{KeysPerPacket: keysPerPacket, CacheEntries: size})
			if err != nil {
				return nil, nil, err
			}
			// Cache the hot set: ranks 0..size-1 ARE the hottest keys
			// under the sampler (rank i has probability ∝ 1/(i+1)^s).
			for k := uint32(0); int(k) < size; k++ {
				if err := sw.Install(k, k); err != nil {
					return nil, nil, err
				}
			}
			for _, r := range reqs {
				r.pkt.IngressPort, r.pkt.EgressPort = r.port, -1
				if _, err := sw.Process(r.pkt); err != nil {
					return nil, nil, err
				}
			}
			row := CacheHitRow{
				CacheEntries: size,
				Skew:         skew,
				Hits:         sw.Hits(),
				Misses:       sw.Misses(),
			}
			total := row.Hits + row.Misses
			if total > 0 {
				row.HitRate = float64(row.Hits) / float64(total)
			}
			rows = append(rows, row)
			t.AddRow(size, skew, row.HitRate, row.Hits, row.Misses)
		}
	}
	return t.Table, rows, nil
}
