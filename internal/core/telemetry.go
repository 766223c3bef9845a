package core

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Instrument attaches the ADCP switch to a telemetry sink through
// telemetry.InstrumentSwitch, which documents what is exported and the
// observers it installs: this is the ADCP switch's description — its
// counters, both traffic managers (tm=1 / tm=2), and the ingress, central
// and egress pipelines.
func (s *Switch) Instrument(tel *telemetry.Telemetry, now func() sim.Time) {
	telemetry.InstrumentSwitch(tel, now, telemetry.SwitchWiring{
		Arch: "adcp",
		Counters: func(reg *telemetry.Registry, ls []telemetry.Label) {
			reg.ObserveFunc("switch.delivered_pkts", func() float64 { return float64(s.delivered) }, ls...)
			reg.ObserveFunc("switch.delivered_bytes", func() float64 { return float64(s.deliveredBytes) }, ls...)
			reg.ObserveFunc("switch.consumed_pkts", func() float64 { return float64(s.consumed) }, ls...)
			reg.ObserveFunc("switch.bad_routes", func() float64 { return float64(s.badRoutes) }, ls...)
			reg.ObserveFunc("switch.ingress_traversals", func() float64 { return float64(s.IngressTraversals()) }, ls...)
			reg.ObserveFunc("switch.central_traversals", func() float64 { return float64(s.CentralTraversals()) }, ls...)
			reg.ObserveFunc("switch.active_coflows", func() float64 { return float64(len(s.coflowLast)) }, ls...)
			reg.ObserveFunc("switch.coflow_evictions", func() float64 { return float64(s.coflowEvictions) }, ls...)
			reg.ObserveFunc("switch.coflow_readmissions", func() float64 { return float64(s.coflowReadmissions) }, ls...)
			reg.ObserveFunc("switch.late_drops", func() float64 { return float64(s.lateDrops) }, ls...)
		},
		TMs:     []telemetry.NamedTM{{Label: "1", Name: "tm1", TM: s.tm1}, {Label: "2", Name: "tm2", TM: s.tm2}},
		Roles:   []telemetry.NamedPipes{{Role: "ingress", Pipes: s.ingress}, {Role: "central", Pipes: s.central}, {Role: "egress", Pipes: s.egress}},
		ClockHz: s.cfg.Pipe.ClockHz,
	})
}
