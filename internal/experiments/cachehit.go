package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/stats"
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
	t := stats.NewTable(
		fmt.Sprintf("cache effectiveness: hit rate vs on-switch cache size (keyspace %d, Zipf GETs)", keySpace),
		"cache entries", "zipf skew", "hit rate", "hits", "misses",
	)
	var rows []CacheHitRow
	// Every point's packets come out of one arena, encoded from one header.
	var arena packet.Arena
	kv := packet.KVHeader{Op: packet.KVGet}
	for _, skew := range skews {
		// The requests depend on the skew only: generate them and regroup
		// them per partition, as the app's tests batch, once for all sizes.
		injs, err := workload.KVZipf(workload.KVParams{
			CoflowID: 1, Clients: 4, OpsPerClient: 250,
			KeysPerPacket: keysPerPacket, KeySpace: keySpace, Seed: 77,
		}, skew)
		if err != nil {
			return nil, nil, err
		}
		batches := make([][][]packet.KVPair, len(injs))
		var d packet.Decoded
		for i, inj := range injs {
			if err := d.DecodePacket(inj.Pkt); err != nil {
				return nil, nil, err
			}
			batches[i] = apps.PartitionKV(d.KV.Pairs, cfg.CentralPipelines, keysPerPacket)
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
			for i, inj := range injs {
				for _, batch := range batches[i] {
					kv.Pairs = batch
					// KV's source port is its client, which is inj.Src.
					pkt := arena.Build(packet.Header{
						Proto: packet.ProtoKV, SrcPort: uint16(inj.Src), CoflowID: 1,
					}, &kv)
					pkt.IngressPort = inj.Src
					if _, err := sw.Process(pkt); err != nil {
						return nil, nil, err
					}
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
			record("cachehit.hit_rate", row.HitRate,
				lbl("entries", li(size)), lbl("skew", lf(skew)))
			t.AddRow(
				fmt.Sprintf("%d", size),
				fmt.Sprintf("%.1f", skew),
				fmt.Sprintf("%.1f%%", 100*row.HitRate),
				fmt.Sprintf("%d", row.Hits),
				fmt.Sprintf("%d", row.Misses),
			)
		}
	}
	return t, rows, nil
}
