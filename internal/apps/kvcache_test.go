package apps

import (
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tm"
)

func kvGet(src int, keys ...uint32) *packet.Packet {
	pairs := make([]packet.KVPair, len(keys))
	for i, k := range keys {
		pairs[i] = packet.KVPair{Key: k}
	}
	p := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: uint16(src), CoflowID: 9},
		&packet.KVHeader{Op: packet.KVGet, Pairs: pairs})
	p.IngressPort = src
	return p
}

func TestKVCacheADCPHitsAndMisses(t *testing.T) {
	kv := KVConfig{KeysPerPacket: 8, CacheEntries: 100}
	sw, err := NewKVCacheADCP(smallADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	// Install keys 1..100 with value = key*10, partition-aware batching.
	for k := uint32(1); k <= 100; k++ {
		if err := sw.Install(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	// SRAM cost: exactly 100 entries across the global area.
	if sw.SRAMUsed() != 100 {
		t.Errorf("SRAM = %d, want 100 (no replication)", sw.SRAMUsed())
	}
	// A GET batch whose keys share a partition.
	batches := PartitionKV([]packet.KVPair{
		{Key: 1}, {Key: 2}, {Key: 3}, {Key: 4}, {Key: 5}, {Key: 6}, {Key: 7}, {Key: 8},
	}, sw.Config().CentralPipelines, 8)
	total := 0
	for _, batch := range batches {
		keys := make([]uint32, len(batch))
		for i, p := range batch {
			keys[i] = p.Key
		}
		out, err := sw.Process(kvGet(2, keys...))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].EgressPort != 2 {
			t.Fatalf("reply = %v", out)
		}
		var d packet.Decoded
		if err := d.DecodePacket(out[0]); err != nil {
			t.Fatal(err)
		}
		if d.KV.Op != packet.KVHit {
			t.Errorf("op = %v, want hit", d.KV.Op)
		}
		for _, pr := range d.KV.Pairs {
			if pr.Value != pr.Key*10 {
				t.Errorf("key %d value %d", pr.Key, pr.Value)
			}
			total++
		}
	}
	if total != 8 {
		t.Errorf("total pairs served = %d", total)
	}
	if sw.Hits() != 8 {
		t.Errorf("Hits = %d, want 8", sw.Hits())
	}
	// Miss path.
	out, err := sw.Process(kvGet(3, 9999))
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoded
	d.DecodePacket(out[0])
	if d.KV.Op != packet.KVMiss {
		t.Errorf("op = %v, want miss", d.KV.Op)
	}
}

func TestKVCacheADCPPut(t *testing.T) {
	sw, err := NewKVCacheADCP(smallADCP(), KVConfig{KeysPerPacket: 4, CacheEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	put := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: 1, CoflowID: 9},
		&packet.KVHeader{Op: packet.KVPut, Pairs: []packet.KVPair{{Key: 42, Value: 777}}})
	put.IngressPort = 1
	if _, err := sw.Process(put); err != nil {
		t.Fatal(err)
	}
	out, err := sw.Process(kvGet(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoded
	d.DecodePacket(out[0])
	if d.KV.Op != packet.KVHit || d.KV.Pairs[0].Value != 777 {
		t.Errorf("after PUT: %+v", d.KV)
	}
}

func TestKVCacheRMTReplicationCost(t *testing.T) {
	kv := KVConfig{KeysPerPacket: 8, CacheEntries: 100}
	cfg := smallRMT()
	sw, err := NewKVCacheRMT(cfg, kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 100; k++ {
		if err := sw.Install(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	// SRAM cost: 100 entries × 8 copies × 2 pipelines = 1600.
	if sw.SRAMUsed() != 1600 {
		t.Errorf("SRAM = %d, want 1600 (Figure 3 replication × pipeline copies)", sw.SRAMUsed())
	}
	// Effective capacity per pipeline = 4096/8.
	if got := sw.EffectiveCapacity(); got != 512 {
		t.Errorf("effective capacity = %d, want 512", got)
	}
	// Lookups still work, from any client port, one traversal.
	out, err := sw.Process(kvGet(5, 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoded
	d.DecodePacket(out[0])
	if d.KV.Op != packet.KVHit {
		t.Errorf("op = %v", d.KV.Op)
	}
	for _, pr := range d.KV.Pairs {
		if pr.Value != pr.Key*10 {
			t.Errorf("key %d value %d", pr.Key, pr.Value)
		}
	}
}

func TestKVCacheRMTCapacityExhaustion(t *testing.T) {
	// 4096-entry stages with 16-fold replication hold 256 distinct keys;
	// entry 257 must fail — the Figure 3 capacity loss made concrete.
	kv := KVConfig{KeysPerPacket: 16, CacheEntries: 300}
	sw, err := NewKVCacheRMT(smallRMT(), kv)
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for k := uint32(0); k < 300; k++ {
		if err := sw.Install(k, k); err != nil {
			failed++
		}
	}
	if failed != 300-256 {
		t.Errorf("failed installs = %d, want 44", failed)
	}
	// The ADCP build holds all 300 with room to spare.
	asw, err := NewKVCacheADCP(smallADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 300; k++ {
		if err := asw.Install(k, k); err != nil {
			t.Fatalf("ADCP install %d: %v", k, err)
		}
	}
}

func TestKVCacheRMTTooManyKeys(t *testing.T) {
	if _, err := NewKVCacheRMT(smallRMT(), KVConfig{KeysPerPacket: 32, CacheEntries: 1}); err == nil {
		t.Error("32 keys over 16 MAUs accepted")
	}
}

func TestKVCacheValidation(t *testing.T) {
	if _, err := NewKVCacheADCP(smallADCP(), KVConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewKVCacheRMT(smallRMT(), KVConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestPartitionKV(t *testing.T) {
	pairs := make([]packet.KVPair, 100)
	for i := range pairs {
		pairs[i] = packet.KVPair{Key: uint32(i)}
	}
	batches := PartitionKV(pairs, 4, 8)
	seen := 0
	sw, _ := NewKVCacheADCP(smallADCP(), KVConfig{KeysPerPacket: 8, CacheEntries: 1})
	for _, b := range batches {
		if len(b) == 0 || len(b) > 8 {
			t.Fatalf("batch size %d", len(b))
		}
		// All keys of a batch share a partition.
		p0 := sw.PartitionOf(b[0].Key)
		for _, pr := range b {
			if sw.PartitionOf(pr.Key) != p0 {
				t.Fatal("mixed-partition batch")
			}
			seen++
		}
	}
	if seen != 100 {
		t.Errorf("covered %d pairs", seen)
	}
}

// partitionKVByAppend is PartitionKV as first written, one append per pair
// onto a slice per partition: the reference its counting sort must match.
func partitionKVByAppend(pairs []packet.KVPair, partitions, maxBatch int) [][]packet.KVPair {
	part := tm.NewHashPartitioner(partitions)
	byPart := make([][]packet.KVPair, partitions)
	for _, p := range pairs {
		i := part.Place(uint64(p.Key))
		byPart[i] = append(byPart[i], p)
	}
	var out [][]packet.KVPair
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

// TestPartitionKVMatchesReference: for random pairs (repeated keys
// included, told apart by their values), 1–8 partitions and batches of 1–8
// pairs, PartitionKV returns the reference's batches in the reference's
// order; every batch has cap == len, so an append to one cannot overwrite
// its neighbour; and a call makes two allocations, the shared slice and the
// list of batches. Every tenth round takes 17–24 partitions instead, past
// the counts' stack buffer, and checks the batches only.
func TestPartitionKVMatchesReference(t *testing.T) {
	rng := sim.NewRNG(5)
	for round := 0; round < 300; round++ {
		pairs := make([]packet.KVPair, rng.Intn(48))
		for i := range pairs {
			pairs[i] = packet.KVPair{Key: uint32(rng.Intn(64)), Value: uint32(i)}
		}
		partitions, maxBatch := 1+rng.Intn(8), 1+rng.Intn(8)
		if round%10 == 9 {
			partitions += 16
		}
		got, want := PartitionKV(pairs, partitions, maxBatch), partitionKVByAppend(pairs, partitions, maxBatch)
		if len(got) != len(want) {
			t.Fatalf("%d pairs over %d partitions by %d: %d batches, want %d", len(pairs), partitions, maxBatch, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("%d pairs over %d partitions by %d: batch %d is %v (cap %d), want %v (cap == len)",
					len(pairs), partitions, maxBatch, i, got[i], cap(got[i]), want[i])
			}
		}
		if partitions > 8 {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { PartitionKV(pairs, partitions, maxBatch) }); allocs > 2 {
			t.Fatalf("%d pairs over %d partitions: %.0f allocations, want at most 2", len(pairs), partitions, allocs)
		}
	}
}

func TestKVCacheEndToEndNetwork(t *testing.T) {
	kv := KVConfig{KeysPerPacket: 4, CacheEntries: 50}
	sw, err := NewKVCacheADCP(smallADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 50; k++ {
		sw.Install(k, k+1000)
	}
	n, err := netsim.New(netsim.DefaultConfig(8), sw)
	if err != nil {
		t.Fatal(err)
	}
	// Each host sends a single-partition batch.
	sent := 0
	for h := 0; h < 8; h++ {
		batches := PartitionKV([]packet.KVPair{{Key: uint32(h)}, {Key: uint32(h + 8)}}, 4, 4)
		for _, b := range batches {
			keys := make([]uint32, len(b))
			for i, p := range b {
				keys[i] = p.Key
			}
			n.SendAt(h, kvGet(h, keys...), 0)
			sent++
		}
	}
	n.Tracker().Expect(9, sent)
	n.Run()
	if int(n.Delivered()) != sent {
		t.Errorf("delivered %d of %d; errs %v", n.Delivered(), sent, n.Errors())
	}
	for h := 0; h < 8; h++ {
		for _, p := range n.Host(h).Received {
			var d packet.Decoded
			if err := d.DecodePacket(p); err != nil {
				t.Fatal(err)
			}
			if d.KV.Op != packet.KVHit {
				t.Errorf("host %d got %v", h, d.KV.Op)
			}
		}
	}
}
