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

// TestRecoveryPathAllocs puts a ceiling on the recovery path as the
// benchmark's lossy-failover exercises it: a parameter-aggregation round
// over a real ADCP switch with 1 % link loss, a warm standby and a crash
// 40 % into the round. Generation, netsim.New, injection and Run are
// counted, per delivered packet; building the two switches is not. Every
// delivered packet has been cloned at the sender, logged and shipped to the
// standby (or retransmitted to it), timed, acknowledged and fanned out, so
// this is the sum of everything handler events, owned timers, slabs and
// arenas are for.
func TestRecoveryPathAllocs(t *testing.T) {
	const runs = 3
	ps := apps.PSConfig{Workers: 12, ModelSize: 4096, Width: 4}
	geom := core.DefaultConfig()
	geom.Ports, geom.CentralPipelines, geom.EgressPipelines = 16, 4, 4
	geom.Pipe.Stages, geom.Pipe.TableEntriesPerStage, geom.Pipe.RegisterCellsPerStage = 6, 4096, 16384
	// A crash destroys the primary, so every run gets its own pair.
	var pairs [runs + 1][2]*core.Switch
	for i := range pairs {
		for j := range pairs[i] {
			sw, err := apps.NewParamServerADCP(geom, ps)
			if err != nil {
				t.Fatal(err)
			}
			pairs[i][j] = sw
		}
	}
	deliveries := ps.ModelSize / ps.Width * ps.Workers
	next := 0
	var last *netsim.Network
	round := func() {
		pair := pairs[next]
		next++
		rec := faults.DefaultRecovery()
		cfg := netsim.DefaultConfig(geom.Ports)
		cfg.Recovery = &rec
		cfg.Standby = pair[1]
		cfg.Faults = &faults.Plan{
			Seed:          1,
			Link:          faults.LinkFaults{LossRate: 0.01},
			SwitchCrashAt: 50 * sim.Microsecond,
		}
		injs, err := workload.ML(workload.MLParams{
			CoflowID: 1, Workers: ps.Workers, ModelSize: ps.ModelSize,
			ValuesPerPacket: ps.Width, Gap: 100 * sim.Nanosecond, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := netsim.New(cfg, pair[0])
		if err != nil {
			t.Fatal(err)
		}
		n.Tracker().Expect(1, deliveries)
		for _, inj := range injs {
			n.SendAt(inj.Src, inj.Pkt, inj.At)
		}
		n.Run()
		last = n
	}
	perPkt := testing.AllocsPerRun(runs, round) / float64(deliveries)
	t.Logf("%.3f allocations per delivered packet", perPkt)
	if perPkt > 2.0 {
		t.Errorf("the recovery path allocates %.3f objects per delivered packet, want at most 2.0", perPkt)
	}
	// The ceiling only means something if the round did what it claims.
	led, st := last.Ledger(), last.HA().Stats()
	if len(last.Errors()) != 0 || int(last.Delivered()) != deliveries {
		t.Fatalf("delivered %d of %d, errors %v", last.Delivered(), deliveries, last.Errors())
	}
	if st.Promotions != 1 || st.DeltasShipped == 0 || led.CrashDrops == 0 || led.UplinkRetx == 0 || led.DownlinkRetx == 0 {
		t.Fatalf("the round exercised no failover or no loss: ledger %+v, ha %+v", led, st)
	}
}
