package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// FaultsRow is one (loss rate, architecture) point of the fault sweep.
type FaultsRow struct {
	LossRate float64
	Arch     string // "rmt" | "adcp"
	CCT      sim.Time
	// Inflation is CCT / the same architecture's loss-free CCT.
	Inflation float64
	// Retransmits counts recovery retransmissions (both legs); Overhead is
	// retransmits per originally-injected packet.
	Retransmits uint64
	Overhead    float64
	// LostAttempts counts wire attempts the injector destroyed.
	LostAttempts uint64
}

// pointSeed keeps a fault sweep deterministic: each (index, arch) point
// gets its own fixed injector seed, so adding a point never reshuffles the
// fault sequences of the others.
func pointSeed(base uint64, idx int, arch string) uint64 {
	s := base + uint64(idx)*1024
	if arch == "adcp" {
		s += 512
	}
	return s
}

// faultsSeed is the Faults sweep's pointSeed.
func faultsSeed(rateIdx int, arch string) uint64 { return pointSeed(0xFA_0175, rateIdx, arch) }

// The fault and failover sweeps perturb one parameter-server aggregation
// round: coflow 25 of 8 workers, a 32-weight model, 4 weights per packet.
var faultRound = apps.PSConfig{Workers: 8, ModelSize: 32, Width: 4}

// faultRoundSwitch builds arch's switch for the round.
func faultRoundSwitch(arch string) (netsim.SwitchModel, error) {
	cc := DefaultConvergenceConfig()
	if arch == "rmt" {
		return apps.NewParamServerRMT(rmtConfig(cc), faultRound)
	}
	return apps.NewParamServerADCP(adcpConfig(cc), faultRound)
}

// runFaultRound runs the round on sw under ncfg; a run error fails it.
func runFaultRound(sw netsim.SwitchModel, ncfg netsim.Config) (*apps.RunResult, error) {
	res, err := apps.RunParamServer(sw, ncfg, faultRound, 25, 99)
	if err == nil && len(res.Errors) > 0 {
		err = fmt.Errorf("run errors: %v", res.Errors)
	}
	return res, err
}

// Faults sweeps link loss rate × {RMT, ADCP} over the parameter-server
// aggregation round (verified outputs) with end-host recovery enabled, and
// reports CCT inflation and retransmit overhead. nil lossRates selects the
// default sweep {0, 0.5%, 1%, 2%, 5%}.
func Faults(lossRates []float64) (*stats.Table, []FaultsRow, error) {
	if len(lossRates) == 0 {
		lossRates = []float64{0, 0.005, 0.01, 0.02, 0.05}
	}
	rec := faults.DefaultRecovery()
	hub := telemetry.Hub()

	run := func(tel *telemetry.Telemetry, arch string, rateIdx int, rate float64) (*apps.RunResult, error) {
		sw, err := faultRoundSwitch(arch)
		if err != nil {
			return nil, err
		}
		ncfg := netConfig(tel, DefaultConvergenceConfig().Ports)
		ncfg.Faults = &faults.Plan{
			Seed: faultsSeed(rateIdx, arch),
			Link: faults.LinkFaults{LossRate: rate},
		}
		ncfg.Recovery = &rec
		return runFaultRound(sw, ncfg)
	}

	// Every (rate, arch) point is independent — each builds its own switch
	// and network and is pinned to its own injector seed — so the grid fans
	// out across the worker pool and rows fill result slots by index.
	// Inflation needs each architecture's loss-free CCT, so it is computed
	// in the in-order assembly pass below, after all points finish.
	type cell struct {
		rateIdx int
		rate    float64
		arch    string
	}
	var cells []cell
	for i, rate := range lossRates {
		for _, arch := range []string{"rmt", "adcp"} {
			cells = append(cells, cell{rateIdx: i, rate: rate, arch: arch})
		}
	}
	rows := make([]FaultsRow, len(cells))
	slot := func(i int) any { return &rows[i] }
	meta := func(i int) (string, int64) {
		c := cells[i]
		return fmt.Sprintf("%s loss=%g", c.arch, c.rate), int64(faultsSeed(c.rateIdx, c.arch))
	}
	if err := runPointsSlot(hub, "faults", len(cells), slot, meta, func(i int, tel *telemetry.Telemetry) error {
		c := cells[i]
		res, err := run(tel, c.arch, c.rateIdx, c.rate)
		if err != nil {
			return fmt.Errorf("faults %s @ %g: %w", c.arch, c.rate, err)
		}
		led := res.Network.Ledger()
		row := FaultsRow{
			LossRate:     c.rate,
			Arch:         c.arch,
			CCT:          res.CCT,
			Retransmits:  led.UplinkRetx + led.DownlinkRetx,
			LostAttempts: led.TxLost + led.TxCorrupt + led.RxLost + led.RxCorrupt,
		}
		if res.Injected > 0 {
			row.Overhead = float64(row.Retransmits) / float64(res.Injected)
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, nil, err
	}

	t := newTable(hub.Reg(), "Fault sweep: parameter-server CCT under link loss with end-host recovery (RMT vs ADCP)",
		col{head: "loss rate", cell: pct("%.1f%%"), label: "loss"}, col{head: "arch", label: "arch"},
		col{head: "CCT", metric: "exp.faults.cct_ps"},
		col{head: "inflation", cell: f("%.2fx"), metric: "exp.faults.cct_inflation"},
		col{head: "retransmits", metric: "exp.faults.retransmits"},
		col{head: "retx overhead", cell: f("%.3f"), metric: "exp.faults.retx_overhead"},
		col{head: "lost attempts", metric: "exp.faults.lost_attempts"})
	baseline := map[string]sim.Time{}
	for i := range rows {
		row := &rows[i]
		if base, ok := baseline[row.Arch]; ok && base > 0 {
			row.Inflation = float64(row.CCT) / float64(base)
		} else {
			baseline[row.Arch] = row.CCT
			row.Inflation = 1
		}
		t.AddRow(row.LossRate, row.Arch, row.CCT, row.Inflation, row.Retransmits, row.Overhead, row.LostAttempts)
	}
	return t.Table, rows, nil
}
