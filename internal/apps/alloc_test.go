package apps

import (
	"runtime"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// roundCost runs round a few times and returns the heap objects and heap
// bytes one run allocates, divided by per. Both repeat exactly.
func roundCost(round func(), per int) (objects, bytes float64) {
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs*per), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*per)
}

// TestParamServerRoundAllocs puts a ceiling on a whole aggregation round —
// generation, netsim.New, injection, Run and verification — on a prebuilt,
// reset switch, per delivered packet: what the benchmark's agg-line does.
// Objects are 0.065 on ADCP and 0.075 on RMT (0.079 and 0.090 while the
// round was generated whole before it was posted, 0.393 and 0.404 while a
// completed chunk's result was built with the package-level packet.Build
// and its output list never came from a chunk). Bytes are 175.9 and 219.9,
// RMT copying the bytes of the packets it recirculates (235.2 and 279.2
// while the round was generated whole and posted a send at a time into
// host queues and workers' Received grew by doubling, 237.5 and 281.5
// before results came from the pipelines' arena, 288.6 on either while
// every multicast replica had bytes of its own, 388.7 when every send
// waited as a record and an engine event instead of a queue entry). The
// ceilings are 5 % above.
func TestParamServerRoundAllocs(t *testing.T) {
	ps := PSConfig{Workers: 12, ModelSize: 4096, Width: 4}
	adcp, err := NewParamServerADCP(benchADCP(), ps)
	if err != nil {
		t.Fatal(err)
	}
	rmtSw, err := NewParamServerRMT(benchRMT(), ps)
	if err != nil {
		t.Fatal(err)
	}
	delivered := ps.ModelSize / ps.Width * ps.Workers
	for _, tc := range []struct {
		name                 string
		sw                   netsim.SwitchModel
		reset                func()
		maxObjects, maxBytes float64
	}{
		{"adcp", adcp, func() { ResetParamServerADCP(adcp) }, 0.068, 185},
		{"rmt", rmtSw, func() { ResetParamServerRMT(rmtSw) }, 0.079, 231},
	} {
		round := func() {
			tc.reset()
			if _, err := RunParamServer(tc.sw, netsim.DefaultConfig(16), ps, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		round() // contexts, PHVs and TM queues reach their working size
		perPkt, bytes := roundCost(round, delivered)
		t.Logf("%s: %.3f allocations, %.1f bytes per delivered packet", tc.name, perPkt, bytes)
		if perPkt > tc.maxObjects || bytes > tc.maxBytes {
			t.Errorf("%s: a round allocates %.3f objects and %.1f bytes per delivered packet, want at most %.3f and %.0f", tc.name, perPkt, bytes, tc.maxObjects, tc.maxBytes)
		}
	}
}

// TestKVRoundAllocs is the same ceiling for the KV cache, per architecture:
// a round of batched GETs with a PUT of cached keys every fourth packet
// (request copies, netsim.New, injection, Run) on a prebuilt cache, as the
// benchmark's kv-get and kv-mixed do. The stage programs look keys up in
// scratch of their own and the switches cut their output slices from a
// slab, so what is left is netsim's per-hop share. Bytes are 246.8 (ADCP)
// and 347.3 (RMT), 348.3 and 460.8 before sends waited in host queues; the
// ceilings are 5 % above.
func TestKVRoundAllocs(t *testing.T) {
	const clients, perClient, width, hot = 8, 256, 8, 512
	kv := KVConfig{KeysPerPacket: width, CacheEntries: hot}
	adcp, err := NewKVCacheADCP(benchADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	rmtCfg := benchRMT()
	rmtCfg.Pipe.TableEntriesPerStage *= width // k copies need k× the SRAM
	rmtSw, err := NewKVCacheRMT(rmtCfg, kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < hot; k++ {
		if err := adcp.Install(k, k); err != nil {
			t.Fatal(err)
		}
		if err := rmtSw.Install(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Every other key misses; ADCP gets its batches regrouped per partition.
	var reqs [2][]*packet.Packet // adcp, rmt
	var srcs [2][]int
	for i := 0; i < clients*perClient; i++ {
		op := packet.KVGet
		pairs := make([]packet.KVPair, width)
		for j := range pairs {
			pairs[j] = packet.KVPair{Key: uint32((i*width+j)*7) % (2 * hot)}
			if i%4 == 3 {
				op, pairs[j].Key = packet.KVPut, pairs[j].Key%hot
			}
		}
		add := func(arch int, batch []packet.KVPair) {
			reqs[arch] = append(reqs[arch], packet.Build(packet.Header{
				Proto: packet.ProtoKV, SrcPort: uint16(i % clients), CoflowID: 1, Seq: uint32(i),
			}, &packet.KVHeader{Op: op, Pairs: batch}))
			srcs[arch] = append(srcs[arch], i%clients)
		}
		add(1, pairs)
		for _, batch := range PartitionKV(pairs, benchADCP().CentralPipelines, width) {
			add(0, batch)
		}
	}
	for arch, tc := range []struct {
		name     string
		sw       netsim.SwitchModel
		maxBytes float64
	}{{"adcp", adcp, 259}, {"rmt", rmtSw, 364}} {
		round := func() {
			n, err := netsim.New(netsim.DefaultConfig(16), tc.sw)
			if err != nil {
				t.Fatal(err)
			}
			var copies packet.Arena
			for i, p := range reqs[arch] {
				n.SendAt(srcs[arch][i], copies.Clone(p), sim.Time(i)*100*sim.Nanosecond)
			}
			n.Run()
			if errs := n.Errors(); len(errs) > 0 || int(n.Delivered()) != len(reqs[arch]) {
				t.Fatalf("%s: %d of %d replies delivered, errors %v", tc.name, n.Delivered(), len(reqs[arch]), errs)
			}
		}
		round()
		perPkt, bytes := roundCost(round, len(reqs[arch]))
		t.Logf("%s: %.3f allocations, %.1f bytes per delivered packet", tc.name, perPkt, bytes)
		if perPkt > 0.5 || bytes > tc.maxBytes {
			t.Errorf("%s: a round allocates %.3f objects and %.1f bytes per delivered packet, want at most 0.5 and %.0f", tc.name, perPkt, bytes, tc.maxBytes)
		}
	}
}

// instrumentedNetworks returns the benchmark-geometry parameter servers,
// ADCP and RMT, and a function that builds a 16-host network around one of
// them under the metrics registry it is given: what every network of a
// -metrics run pays to register its series and attach its observers.
func instrumentedNetworks(tb testing.TB) (adcp, rmt netsim.SwitchModel, build func(sw netsim.SwitchModel, reg *telemetry.Registry)) {
	ps := PSConfig{Workers: 12, ModelSize: 4096, Width: 4}
	a, err := NewParamServerADCP(benchADCP(), ps)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := NewParamServerRMT(benchRMT(), ps)
	if err != nil {
		tb.Fatal(err)
	}
	tel := &telemetry.Telemetry{}
	cfg := netsim.DefaultConfig(16)
	cfg.Telemetry = tel
	return a, r, func(sw netsim.SwitchModel, reg *telemetry.Registry) {
		tel.Metrics = reg
		if _, err := netsim.New(cfg, sw); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestInstrumentedNetworkAllocs puts a ceiling on instrumenting one network:
// netsim.New around a benchmark-geometry parameter server under a fresh
// registry, the switch itself prebuilt. ADCP registers 270 series, RMT 135.
// Objects were 969 and 419 (bytes 85 277 and 48 528) when every lookup
// sorted its labels with sort.Slice and built its key in a strings.Builder,
// every pipeline had an observer and a label slice of its own and port
// labels came from Sprintf; 394 and 209 (58 331 and 39 741 bytes) when
// each series still made its key, its labels and its value apart from its
// metric. A series is now one allocation, its key and labels cut from the
// registry's slabs: 214 and 109 objects, 58 093 and 39 736 bytes while the
// hub still reached the network through a goroutine-keyed table; handed in
// by Config.Telemetry, 211 and 106 objects, 57 917 and 39 560 bytes, and
// the ceilings are 5 % above. The figures repeat exactly.
func TestInstrumentedNetworkAllocs(t *testing.T) {
	adcp, rmtSw, build := instrumentedNetworks(t)
	for _, tc := range []struct {
		name                 string
		sw                   netsim.SwitchModel
		maxObjects, maxBytes float64
	}{{"adcp", adcp, 222, 60813}, {"rmt", rmtSw, 112, 41538}} {
		const runs = 4
		regs := make([]*telemetry.Registry, runs+1)
		for i := range regs {
			regs[i] = telemetry.NewRegistry()
		}
		build(tc.sw, regs[runs]) // warm-up: one-time costs stay out of the per-network figure
		objects, bytes := roundCost(func() {
			for _, reg := range regs[:runs] {
				build(tc.sw, reg)
			}
		}, runs)
		t.Logf("%s: %d series, %.0f objects, %.0f bytes per network", tc.name, regs[0].Len(), objects, bytes)
		if objects > tc.maxObjects || bytes > tc.maxBytes {
			t.Errorf("%s: instrumenting a network allocates %.0f objects and %.0f bytes, want at most %.0f and %.0f",
				tc.name, objects, bytes, tc.maxObjects, tc.maxBytes)
		}
	}
}

// BenchmarkInstrumentNetwork is TestInstrumentedNetworkAllocs' set-up as a
// benchmark, one network per op. `make bench-profile PKG=./internal/apps
// B=InstrumentNetwork` prints where its objects go, site by site.
func BenchmarkInstrumentNetwork(b *testing.B) {
	adcp, rmtSw, build := instrumentedNetworks(b)
	for _, tc := range []struct {
		name string
		sw   netsim.SwitchModel
	}{{"adcp", adcp}, {"rmt", rmtSw}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build(tc.sw, telemetry.NewRegistry())
			}
		})
	}
}
