package rmt

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Instrument attaches the switch to a telemetry sink through
// telemetry.InstrumentSwitch, which documents what is exported and the
// observers it installs: this is the RMT switch's description — its
// counters, its one traffic manager, and the ingress and egress pipelines.
func (s *Switch) Instrument(tel *telemetry.Telemetry, now func() sim.Time) {
	telemetry.InstrumentSwitch(tel, now, telemetry.SwitchWiring{
		Arch: "rmt",
		Counters: func(reg *telemetry.Registry, ls []telemetry.Label) {
			reg.ObserveFunc("switch.delivered_pkts", func() float64 { return float64(s.delivered) }, ls...)
			reg.ObserveFunc("switch.delivered_bytes", func() float64 { return float64(s.deliveredBytes) }, ls...)
			reg.ObserveFunc("switch.recirc_traversals", func() float64 { return float64(s.recircTraversals) }, ls...)
			reg.ObserveFunc("switch.misrouted_pkts", func() float64 { return float64(s.misrouted) }, ls...)
			reg.ObserveFunc("switch.ingress_traversals", func() float64 { return float64(s.IngressTraversals()) }, ls...)
		},
		TMs:     []telemetry.NamedTM{{Label: "tm", Name: "tm", TM: s.tmgr}},
		Roles:   []telemetry.NamedPipes{{Role: "ingress", Pipes: s.ingress}, {Role: "egress", Pipes: s.egress}},
		ClockHz: s.cfg.Pipe.ClockHz,
	})
}
