package experiments

import (
	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// SaturationRow is one point of the saturation experiment.
type SaturationRow struct {
	Arch       string
	Traversals uint64
	Recirc     uint64
	CCT        sim.Time
	// Attr is the critical-path decomposition of CCT (AttrOK false when
	// telemetry was off for the run, in which case Attr is zero). When
	// present its buckets sum exactly to CCT.
	Attr   telemetry.Breakdown
	AttrOK bool
}

// Saturation runs the parameter server on both architectures with the
// switch's service capacity modeled (netsim.Config.ServiceRatePPS): every
// ingress traversal — including RMT's steering recirculations — now costs
// switch time, so the §2 "great bandwidth cost" appears directly as coflow
// completion time instead of only as a counter.
func Saturation() (*stats.Table, []SaturationRow, error) {
	cc := DefaultConvergenceConfig()
	ps := apps.PSConfig{Workers: 12, ModelSize: 64, Width: 4}

	// The two architecture runs are independent sweep points; each builds
	// its own network config (Config holds per-run pointers) and switch.
	bottleneck := func(tel *telemetry.Telemetry) netsim.Config {
		netCfg := netConfig(tel, cc.Ports)
		netCfg.ServiceRatePPS = 5e5 // 2 µs per traversal: the switch is the bottleneck
		return netCfg
	}
	rows := make([]SaturationRow, 2)
	slot := func(i int) any { return &rows[i] }
	hub := telemetry.Hub()
	if err := runPointsSlot(hub, "saturation", len(rows), slot, nil, func(i int, tel *telemetry.Telemetry) error {
		if i == 0 {
			asw, err := apps.NewParamServerADCP(adcpConfig(cc), ps)
			if err != nil {
				return err
			}
			ares, err := apps.RunParamServer(asw, bottleneck(tel), ps, 41, 7)
			if err != nil {
				return err
			}
			rows[i] = SaturationRow{Arch: "ADCP", Traversals: asw.IngressTraversals(), Recirc: 0, CCT: ares.CCT}
			rows[i].Attr, rows[i].AttrOK = ares.Network.Attribution(41)
			return nil
		}
		rsw, err := apps.NewParamServerRMT(rmtConfig(cc), ps)
		if err != nil {
			return err
		}
		rres, err := apps.RunParamServer(rsw, bottleneck(tel), ps, 41, 7)
		if err != nil {
			return err
		}
		rows[i] = SaturationRow{Arch: "RMT", Traversals: rsw.IngressTraversals(), Recirc: rsw.RecirculationTraversals(), CCT: rres.CCT}
		rows[i].Attr, rows[i].AttrOK = rres.Network.Attribution(41)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	t := newTable(hub.Reg(), "saturation: parameter aggregation with the switch as the bottleneck (2 µs/traversal)",
		col{head: "architecture", label: "arch"},
		col{head: "ingress traversals", metric: "exp.saturation.ingress_traversals"},
		col{head: "recirculated", metric: "exp.saturation.recirc_traversals"},
		col{head: "coflow completion", metric: "exp.saturation.cct_ps"})
	for _, r := range rows {
		t.AddRow(r.Arch, r.Traversals, r.Recirc, r.CCT)
	}
	return t.Table, rows, nil
}
