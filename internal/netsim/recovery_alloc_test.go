package netsim_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recoveryRig is the recovery path as the benchmark's lossy-failover
// exercises it: a parameter-aggregation round over a real ADCP switch with
// 1 % link loss, a warm standby and a crash 40 % into the round. Every
// delivered packet has been cloned at the sender, logged and shipped to the
// standby (or retransmitted to it), timed, acknowledged and fanned out, so a
// round is the sum of everything handler events, owned timers, slabs, arenas
// and the pair's per-uid index are for.
type recoveryRig struct {
	ps   apps.PSConfig
	geom core.Config
}

func newRecoveryRig() recoveryRig {
	geom := core.DefaultConfig()
	geom.Ports, geom.CentralPipelines, geom.EgressPipelines = 16, 4, 4
	geom.Pipe.Stages, geom.Pipe.TableEntriesPerStage, geom.Pipe.RegisterCellsPerStage = 6, 4096, 16384
	return recoveryRig{ps: apps.PSConfig{Workers: 12, ModelSize: 4096, Width: 4}, geom: geom}
}

// deliveries is what one round delivers: every worker gets every chunk.
func (r recoveryRig) deliveries() int { return r.ps.ModelSize / r.ps.Width * r.ps.Workers }

// pair builds a primary and its standby. A crash destroys the primary, so
// every round needs its own.
func (r recoveryRig) pair(tb testing.TB) (pair [2]*core.Switch) {
	for i := range pair {
		sw, err := apps.NewParamServerADCP(r.geom, r.ps)
		if err != nil {
			tb.Fatal(err)
		}
		pair[i] = sw
	}
	return pair
}

// round is generation, netsim.New, injection and Run over an unused pair.
func (r recoveryRig) round(tb testing.TB, pair [2]*core.Switch) *netsim.Network {
	rec := faults.DefaultRecovery()
	cfg := netsim.DefaultConfig(r.geom.Ports)
	cfg.Recovery = &rec
	cfg.Standby = pair[1]
	cfg.Faults = &faults.Plan{
		Seed:          1,
		Link:          faults.LinkFaults{LossRate: 0.01},
		SwitchCrashAt: 50 * sim.Microsecond,
	}
	injs, err := workload.ML(workload.MLParams{
		CoflowID: 1, Workers: r.ps.Workers, ModelSize: r.ps.ModelSize,
		ValuesPerPacket: r.ps.Width, Gap: 100 * sim.Nanosecond, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := netsim.New(cfg, pair[0])
	if err != nil {
		tb.Fatal(err)
	}
	n.Tracker().Expect(1, r.deliveries())
	for _, inj := range injs {
		n.SendAt(inj.Src, inj.Pkt, inj.At)
	}
	n.Run()
	return n
}

// TestRecoveryPathAllocs puts two ceilings on a recoveryRig round, per
// delivered packet: heap objects and heap bytes. Generation, netsim.New,
// injection and Run are counted; building the two switches is not.
//
// Objects: 0.136 (20.3 before handler events and arenas, 0.622 before
// sender states were reused, 0.595 before a switch built its results from
// its pipelines' arena). Bytes: 1 092.7 at the parent of the per-uid
// index, where the pair kept its exactly-once bookkeeping in three hash
// sets, 975.5 with it in one byte per uid, 879.2 with pending sends in host
// queues instead of the engine, 715.2 before the sender, the delta log and
// the multicast replicas shared one packet's bytes, 511.3 before a sender's
// retransmission state was reused once nothing pointed at it, 371.3 before
// results came from the arena, 368.9 since. Both ceilings are 5 % above, so
// a state cut per send coming back — or anything else worth 19 B or 0.007
// objects a packet — fails here without a benchmark run. Both figures
// repeat exactly.
func TestRecoveryPathAllocs(t *testing.T) {
	const (
		runs       = 3
		maxObjects = 0.143
		maxBytes   = 387.0
	)
	rig := newRecoveryRig()
	var pairs [runs + 1][2]*core.Switch
	for i := range pairs {
		pairs[i] = rig.pair(t)
	}
	last := rig.round(t, pairs[runs]) // warm-up: one-time initialisation is not the path's
	mallocs, total := heapCost(func() {
		for _, pair := range pairs[:runs] {
			last = rig.round(t, pair)
		}
	})
	perPkt := func(n uint64) float64 { return float64(n) / float64(runs*rig.deliveries()) }
	objects, bytes := perPkt(mallocs), perPkt(total)
	t.Logf("%.3f allocations, %.1f bytes per delivered packet", objects, bytes)
	if objects > maxObjects {
		t.Errorf("the recovery path allocates %.3f objects per delivered packet, want at most %.3f", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("the recovery path allocates %.1f bytes per delivered packet, want at most %.0f", bytes, maxBytes)
	}
	// The ceilings only mean something if the round did what it claims.
	led, st := last.Ledger(), last.HA().Stats()
	if len(last.Errors()) != 0 || int(last.Delivered()) != rig.deliveries() {
		t.Fatalf("delivered %d of %d, errors %v", last.Delivered(), rig.deliveries(), last.Errors())
	}
	if st.Promotions != 1 || st.DeltasShipped == 0 || led.CrashDrops == 0 || led.UplinkRetx == 0 || led.DownlinkRetx == 0 {
		t.Fatalf("the round exercised no failover or no loss: ledger %+v, ha %+v", led, st)
	}
}

// BenchmarkRecoveryRound times the same round, switch construction
// excluded, and reports it per delivered packet. `make bench-profile
// PKG=./internal/netsim B=RecoveryRound` runs it under the CPU profiler:
// the per-site ledgers of docs/PERFORMANCE.md without patching bench/.
func BenchmarkRecoveryRound(b *testing.B) {
	rig := newRecoveryRig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pair := rig.pair(b)
		b.StartTimer()
		rig.round(b, pair)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rig.deliveries()), "ns/pkt")
}
