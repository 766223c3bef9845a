package apps

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// The benchmark's geometry (bench/workloads.go): 16 ports, 4 pipelines,
// 6 stages, ADCP demux 2, 4096 table entries and 16384 register cells.
func benchADCP() core.Config {
	c := core.DefaultConfig()
	c.Ports, c.DemuxFactor, c.CentralPipelines, c.EgressPipelines = 16, 2, 4, 4
	c.Pipe.Stages, c.Pipe.TableEntriesPerStage, c.Pipe.RegisterCellsPerStage = 6, 4096, 16384
	return c
}

func benchRMT() rmt.Config {
	c := rmt.DefaultConfig()
	c.Ports, c.Pipelines = 16, 4
	c.Pipe.Stages, c.Pipe.TableEntriesPerStage, c.Pipe.RegisterCellsPerStage = 6, 4096, 16384
	return c
}

// lossyFailoverRound runs one round of the benchmark's lossy-failover
// workload — 12 workers, width 4, 1 % link loss, default recovery, a warm
// standby and a switch crash 40 % into the round — on a model of the given
// size, with a fresh primary and standby as the benchmark builds them.
func lossyFailoverRound(arch string, model int, seed uint64) (*RunResult, error) {
	ps := PSConfig{Workers: 12, ModelSize: model, Width: 4}
	build := func() (netsim.SwitchModel, error) {
		if arch == "adcp" {
			return NewParamServerADCP(benchADCP(), ps)
		}
		return NewParamServerRMT(benchRMT(), ps)
	}
	sw, err := build()
	if err != nil {
		return nil, err
	}
	standby, err := build()
	if err != nil {
		return nil, err
	}
	rec := faults.DefaultRecovery()
	cfg := netsim.DefaultConfig(16)
	cfg.Recovery = &rec
	cfg.Standby = standby
	cfg.Faults = &faults.Plan{
		Seed: seed,
		Link: faults.LinkFaults{LossRate: 0.01},
		// The benchmark crashes a 16384-weight round at 200 µs.
		SwitchCrashAt: 200 * sim.Microsecond * sim.Time(model) / 16384,
	}
	return RunParamServer(sw, cfg, ps, 1, seed)
}

// TestLossyFailoverGolden pins the simulated outcome of the benchmark's
// lossy-failover round at 1/16 model size, recorded before the per-packet
// path was rebuilt on handler events, owned timers and packet arenas: the
// dispatched event count, the CCT, every ledger field and the replication
// statistics. Any change to event order, timing or sequence numbering on
// the recovery path moves at least one of them.
func TestLossyFailoverGolden(t *testing.T) {
	golden := map[string]string{
		"adcp/seed1": "fired=16303 cct=160633600 ledger={TxAttempts:4331 SwitchArrivals:4294 SwitchProcessed:3072 SwitchErrors:0 DupSuppressed:22 SwitchOutputs:3072 HostlessDrops:0 CrashDrops:1200 RxAttempts:3105 TxLost:37 TxCorrupt:0 TxLinkDown:0 TxHostDown:0 RxLost:33 RxCorrupt:0 RxLinkDown:0 RxHostDown:0 UplinkRetx:1259 DownlinkRetx:33 TxAborted:0 RxAborted:0 AcksLost:22 StallDeferrals:0 SendDeferrals:0} ha={DeltasShipped:1435 DeltaBytes:149240 Batches:120 DeltasApplied:1435 ReplayDepth:59 DiscardedDeltas:0 MaxStalenessPs:0 CrashAt:12.500us PromotedAt:22.500us Promotions:1}",
		"rmt/seed1":  "fired=16314 cct=95033600 ledger={TxAttempts:4331 SwitchArrivals:4305 SwitchProcessed:3072 SwitchErrors:0 DupSuppressed:33 SwitchOutputs:3072 HostlessDrops:0 CrashDrops:1200 RxAttempts:3105 TxLost:26 TxCorrupt:0 TxLinkDown:0 TxHostDown:0 RxLost:33 RxCorrupt:0 RxLinkDown:0 RxHostDown:0 UplinkRetx:1259 DownlinkRetx:33 TxAborted:0 RxAborted:0 AcksLost:33 StallDeferrals:0 SendDeferrals:0} ha={DeltasShipped:1435 DeltaBytes:149240 Batches:120 DeltasApplied:1435 ReplayDepth:59 DiscardedDeltas:0 MaxStalenessPs:0 CrashAt:12.500us PromotedAt:22.500us Promotions:1}",
		"adcp/seed7": "fired=16335 cct=83233600 ledger={TxAttempts:4347 SwitchArrivals:4301 SwitchProcessed:3072 SwitchErrors:0 DupSuppressed:31 SwitchOutputs:3072 HostlessDrops:0 CrashDrops:1198 RxAttempts:3098 TxLost:46 TxCorrupt:0 TxLinkDown:0 TxHostDown:0 RxLost:26 RxCorrupt:0 RxLinkDown:0 RxHostDown:0 UplinkRetx:1275 DownlinkRetx:26 TxAborted:0 RxAborted:0 AcksLost:31 StallDeferrals:0 SendDeferrals:0} ha={DeltasShipped:1418 DeltaBytes:147472 Batches:120 DeltasApplied:1418 ReplayDepth:58 DiscardedDeltas:0 MaxStalenessPs:0 CrashAt:12.500us PromotedAt:22.500us Promotions:1}",
		"rmt/seed7":  "fired=16331 cct=84233600 ledger={TxAttempts:4345 SwitchArrivals:4299 SwitchProcessed:3072 SwitchErrors:0 DupSuppressed:29 SwitchOutputs:3072 HostlessDrops:0 CrashDrops:1198 RxAttempts:3100 TxLost:46 TxCorrupt:0 TxLinkDown:0 TxHostDown:0 RxLost:28 RxCorrupt:0 RxLinkDown:0 RxHostDown:0 UplinkRetx:1273 DownlinkRetx:28 TxAborted:0 RxAborted:0 AcksLost:29 StallDeferrals:0 SendDeferrals:0} ha={DeltasShipped:1418 DeltaBytes:147472 Batches:120 DeltasApplied:1418 ReplayDepth:58 DiscardedDeltas:0 MaxStalenessPs:0 CrashAt:12.500us PromotedAt:22.500us Promotions:1}",
	}
	for _, seed := range []uint64{1, 7} {
		for _, arch := range []string{"adcp", "rmt"} {
			name := fmt.Sprintf("%s/seed%d", arch, seed)
			res, err := lossyFailoverRound(arch, 1024, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n := res.Network
			got := fmt.Sprintf("fired=%d cct=%d ledger=%+v ha=%+v",
				n.Engine().Fired(), int64(res.CCT), n.Ledger(), n.HA().Stats())
			if got != golden[name] {
				t.Errorf("%s:\n got %s\nwant %s", name, got, golden[name])
			}
		}
	}
}
