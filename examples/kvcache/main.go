// Multi-key KV cache example (NetCache-style, §3.2): the same cache and
// the same batched GET workload on both architectures, showing the array
// matching win (one traversal per 8-key batch) and the Figure 3 SRAM cost
// RMT pays for it.
//
//	go run ./examples/kvcache
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

func main() {
	kv := apps.KVConfig{KeysPerPacket: 8, CacheEntries: 512}

	acfg := core.DefaultConfig()
	acfg.Ports = 8
	acfg.DemuxFactor = 2
	acfg.CentralPipelines = 4
	acfg.EgressPipelines = 2
	asw, err := apps.NewKVCacheADCP(acfg, kv)
	if err != nil {
		log.Fatal(err)
	}

	rcfg := rmt.DefaultConfig()
	rcfg.Ports = 8
	rcfg.Pipelines = 2
	rpipe := rcfg.Pipe
	rpipe.TableEntriesPerStage = 4096
	rcfg.Pipe = rpipe
	rsw, err := apps.NewKVCacheRMT(rcfg, kv)
	if err != nil {
		log.Fatal(err)
	}

	// Populate both caches with the same 512 entries.
	for k := uint32(0); k < 512; k++ {
		if err := asw.Install(k, k*3); err != nil {
			log.Fatal(err)
		}
		if err := rsw.Install(k, k*3); err != nil {
			log.Fatalf("RMT install %d: %v (effective capacity %d)", k, err, rsw.EffectiveCapacity())
		}
	}
	fmt.Printf("cache: %d entries\n", 512)
	fmt.Printf("  ADCP SRAM consumed: %d entries (partitioned, no copies)\n", asw.SRAMUsed())
	fmt.Printf("  RMT  SRAM consumed: %d entries (×%d replication ×%d pipelines — Figure 3)\n",
		rsw.SRAMUsed(), kv.KeysPerPacket, rcfg.Pipelines)
	fmt.Printf("  RMT effective capacity per pipeline: %d of %d stage entries\n\n",
		rsw.EffectiveCapacity(), 4096)

	// Serve batched GETs. ADCP batches must be partition-pure; the client
	// library regroups them (apps.PartitionKV).
	rng := sim.NewRNG(99)
	var pairs []packet.KVPair
	for i := 0; i < 64; i++ {
		pairs = append(pairs, packet.KVPair{Key: uint32(rng.Intn(512))})
	}
	served := 0
	for _, batch := range apps.PartitionKV(pairs, acfg.CentralPipelines, kv.KeysPerPacket) {
		req := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: 2, CoflowID: 1},
			&packet.KVHeader{Op: packet.KVGet, Pairs: batch})
		req.IngressPort = 2
		out, err := asw.Process(req)
		if err != nil {
			log.Fatal(err)
		}
		var d packet.Decoded
		if err := d.DecodePacket(out[0]); err != nil {
			log.Fatal(err)
		}
		for _, pr := range d.KV.Pairs {
			if pr.Value != pr.Key*3 {
				log.Fatalf("wrong value for key %d", pr.Key)
			}
			served++
		}
	}
	fmt.Printf("ADCP served %d keys, hits counted on-switch: %d\n", served, asw.Hits())
	fmt.Println("every batch matched in a single traversal against one shared table (Figure 6)")
}
