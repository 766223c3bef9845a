package netsim_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// lossyHA is a network of hosts with 3 % link loss, recovery, a warm
// standby and a switch crash at crashAt.
func lossyHA(hosts int, standby netsim.SwitchModel, crashAt sim.Time) netsim.Config {
	rec := faults.DefaultRecovery()
	cfg := netsim.DefaultConfig(hosts)
	cfg.Recovery = &rec
	cfg.Standby = standby
	cfg.Faults = &faults.Plan{Seed: 5, Link: faults.LinkFaults{LossRate: 0.03}, SwitchCrashAt: crashAt}
	return cfg
}

// checkGuardedRun fails unless the run handed bytes over again — by
// retransmission or by the standby's replay — so the guard compared them.
func checkGuardedRun(t *testing.T, n *netsim.Network, g *netsim.ByteGuard) {
	t.Helper()
	led, st := n.Ledger(), n.HA().Stats()
	t.Logf("%d hand-offs, %d of them repeats; ledger %+v, ha %+v", g.Handoffs, g.Repeats, led, st)
	if g.Repeats == 0 || led.UplinkRetx == 0 || led.CrashDrops == 0 || st.DeltasApplied == 0 || st.Promotions != 1 {
		t.Fatalf("the run exercised no retransmission, replay or failover")
	}
}

// TestParamServerKeepsHandedBytes runs a parameter-aggregation round on
// real switches, primary and standby under one ByteGuard, through loss and a
// failover. RMT loops a packet from another pipeline into the aggregation
// pipeline, copying the bytes it was handed before it sets FlagRecirc, and
// the packets are wider than that pipeline, so it recirculates them again
// over the bytes its deparser rewrote. ADCP fans every result out to every
// worker as structs over one set of bytes.
func TestParamServerKeepsHandedBytes(t *testing.T) {
	ps := apps.PSConfig{Workers: 6, ModelSize: 256, Width: 16}
	adcpCfg := core.DefaultConfig()
	adcpCfg.Ports, adcpCfg.CentralPipelines, adcpCfg.EgressPipelines = 8, 4, 2
	adcpCfg.Pipe.Stages, adcpCfg.Pipe.RegisterCellsPerStage = 4, 1024
	rmtCfg := rmt.DefaultConfig()
	rmtCfg.Ports, rmtCfg.Pipelines = 8, 2
	rmtCfg.Pipe.Stages, rmtCfg.Pipe.RegisterCellsPerStage = 6, 1024
	for _, arch := range []string{"adcp", "rmt"} {
		t.Run(arch, func(t *testing.T) {
			var pair [2]netsim.SwitchModel
			for i := range pair {
				var err error
				if arch == "adcp" {
					pair[i], err = apps.NewParamServerADCP(adcpCfg, ps)
				} else {
					pair[i], err = apps.NewParamServerRMT(rmtCfg, ps)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			g := netsim.NewByteGuard(t)
			res, err := apps.RunParamServer(g.Wrap(pair[0]), lossyHA(8, g.Wrap(pair[1]), sim.Microsecond), ps, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkGuardedRun(t, res.Network, g)
			if sw, ok := pair[1].(*rmt.Switch); ok && sw.RecirculationTraversals() == 0 {
				t.Fatal("the RMT standby never recirculated")
			}
		})
	}
}

// TestRecirculationKeepsHandedBytes runs RMT's two recirculation sites on
// real switches in a network, primary and standby under one ByteGuard,
// through loss and a failover. "loopback" is TestLoopbackPortCrossesPipelines'
// program: a packet from pipeline 0 loops back into pipeline 1 through a
// marked port. "recirculate" sends it round its own ingress pipeline by
// verdict. Either way the program tells the passes apart by FlagRecirc in
// bytes it never modifies, so the switch must copy them before it sets the
// flag: the bytes it was handed must survive for the retransmissions and
// the standby's replay, and the standby's count must come out exact.
func TestRecirculationKeepsHandedBytes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		firstPass func(*pipeline.Context)
		countPipe int // the ingress pipeline of the second pass
	}{
		{"loopback", func(ctx *pipeline.Context) { ctx.Egress = 4 }, 1}, // pipeline 1's first port
		{"recirculate", func(ctx *pipeline.Context) { ctx.Verdict = pipeline.VerdictRecirculate }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
				func(st *pipeline.Stage, ctx *pipeline.Context) error {
					if ctx.Pkt.Data[5]&packet.FlagRecirc == 0 {
						tc.firstPass(ctx)
						return nil
					}
					if _, err := st.RegisterRMW(mat.RegAdd, 0, 1); err != nil {
						return err
					}
					ctx.Egress = 5
					return nil
				},
			}}
			cfg := rmt.DefaultConfig()
			cfg.Ports, cfg.Pipelines, cfg.Pipe.Stages = 8, 2, 4
			var pair [2]*rmt.Switch
			for i := range pair {
				sw, err := rmt.New(cfg, prog, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := sw.MarkRecirculationPort(4); err != nil {
					t.Fatal(err)
				}
				pair[i] = sw
			}
			const pkts = 400
			g := netsim.NewByteGuard(t)
			n, err := netsim.New(lossyHA(8, g.Wrap(pair[1]), 20*sim.Microsecond), g.Wrap(pair[0]))
			if err != nil {
				t.Fatal(err)
			}
			n.Tracker().Expect(1, pkts)
			for i := 0; i < pkts; i++ {
				p := packet.BuildRaw(packet.Header{DstPort: 5, SrcPort: uint16(i % 4), CoflowID: 1, Seq: uint32(i)}, 40)
				n.SendAt(i%4, p, sim.Time(i)*100*sim.Nanosecond)
			}
			n.Run()
			if errs := n.Errors(); len(errs) != 0 || !n.Tracker().Done(1) {
				t.Fatalf("delivered %d of %d, errors %v", n.Delivered(), pkts, errs)
			}
			checkGuardedRun(t, n, g)
			if got := pair[1].Ingress(tc.countPipe).Stage(0).Regs.Peek(0); got != pkts {
				t.Errorf("standby counted %d packets, want %d", got, pkts)
			}
		})
	}
}
