package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ConvergenceRow is one point of the Figure 1/2 coflow-convergence
// experiment: an all-to-all aggregation with `workers` member flows spread
// across the switch's ports.
type ConvergenceRow struct {
	Workers int
	// RMTRecircTraversals is the extra ingress passes RMT burned moving
	// flows into the aggregation pipeline (plus width passes).
	RMTRecircTraversals uint64
	// RMTOverhead is the fraction of ingress capacity those passes cost.
	RMTOverhead float64
	// ADCPRecircTraversals is always 0.
	ADCPRecircTraversals uint64
	// CCTs under identical arrivals.
	RMTCCT  sim.Time
	ADCPCCT sim.Time
	// EgressAltStages/Fraction quantify the Figure 2 alternative
	// (egress-only processing): usable stages and their fraction.
	EgressAltStages int
	// PinnedPortFraction is the share of output ports reachable when
	// results are produced in one egress pipeline (Figure 2's pinning).
	PinnedPortFraction float64
}

// ConvergenceConfig sizes the experiment.
type ConvergenceConfig struct {
	Ports     int
	Pipelines int // RMT pipelines (ADCP uses the same port count)
	ModelSize int
	Width     int
}

// DefaultConvergenceConfig uses a 16-port switch.
func DefaultConvergenceConfig() ConvergenceConfig {
	return ConvergenceConfig{Ports: 16, Pipelines: 4, ModelSize: 32, Width: 4}
}

// Convergence runs parameter aggregation for growing coflow widths on both
// architectures and reports what colocating the coflow costs each.
func Convergence(cfg ConvergenceConfig, workerCounts []int) (*stats.Table, []ConvergenceRow, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4, 8, 15}
	}
	tel := telemetry.Hub()
	t := newTable(tel.Reg(),
		fmt.Sprintf("Figures 1+2: coflow convergence cost (%d ports, %d RMT pipelines)", cfg.Ports, cfg.Pipelines),
		col{head: "coflow width", label: "workers"},
		col{head: "RMT recirc traversals", metric: "exp.convergence.rmt_recirc_traversals"},
		col{head: "RMT ingress overhead", cell: pct("%.1f%%"), metric: "exp.convergence.rmt_ingress_overhead"},
		col{head: "ADCP recirc"}, col{head: "RMT CCT", metric: "exp.convergence.rmt_cct_ps"},
		col{head: "ADCP CCT", metric: "exp.convergence.adcp_cct_ps"}, col{head: "egress-alt stages"},
		col{head: "pinned ports", cell: pct("%.0f%%")})
	var rows []ConvergenceRow
	for _, w := range workerCounts {
		if w >= cfg.Ports {
			return nil, nil, fmt.Errorf("experiments: %d workers need a free loopback port on %d ports", w, cfg.Ports)
		}
		ps := apps.PSConfig{Workers: w, ModelSize: cfg.ModelSize, Width: cfg.Width}

		rsw, err := apps.NewParamServerRMT(rmtConfig(cfg), ps)
		if err != nil {
			return nil, nil, err
		}
		rres, err := apps.RunParamServer(rsw, netConfig(tel, cfg.Ports), ps, 1, 99)
		if err != nil {
			return nil, nil, err
		}

		asw, err := apps.NewParamServerADCP(adcpConfig(cfg), ps)
		if err != nil {
			return nil, nil, err
		}
		ares, err := apps.RunParamServer(asw, netConfig(tel, cfg.Ports), ps, 1, 99)
		if err != nil {
			return nil, nil, err
		}

		egStages, _ := analytic.EgressOnlyStages(rsw.Config().Pipe.Stages, rsw.Config().Pipe.Stages)
		row := ConvergenceRow{
			Workers:             w,
			RMTRecircTraversals: rsw.RecirculationTraversals(),
			RMTOverhead:         rsw.IngressOverheadFraction(),
			RMTCCT:              rres.CCT,
			ADCPCCT:             ares.CCT,
			EgressAltStages:     egStages,
			PinnedPortFraction:  1.0 / float64(cfg.Pipelines),
		}
		rows = append(rows, row)
		t.AddRow(w, row.RMTRecircTraversals, row.RMTOverhead, row.ADCPRecircTraversals, row.RMTCCT, row.ADCPCCT,
			[]any{"%d of %d", egStages, 2 * rsw.Config().Pipe.Stages}, row.PinnedPortFraction)
	}
	return t.Table, rows, nil
}

func rmtConfig(cfg ConvergenceConfig) rmt.Config {
	c := rmt.DefaultConfig()
	c.Ports = cfg.Ports
	c.Pipelines = cfg.Pipelines
	c.Pipe.Stages = 6
	c.Pipe.TableEntriesPerStage = 4096
	c.Pipe.RegisterCellsPerStage = 1024
	return c
}

func adcpConfig(cfg ConvergenceConfig) core.Config {
	c := core.DefaultConfig()
	c.Ports = cfg.Ports
	c.DemuxFactor = 2
	c.CentralPipelines = cfg.Pipelines
	c.EgressPipelines = cfg.Pipelines
	c.Pipe.Stages = 6
	c.Pipe.TableEntriesPerStage = 4096
	c.Pipe.RegisterCellsPerStage = 1024
	return c
}
