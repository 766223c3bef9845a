package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/swswitch"
)

// TensionRow is one point of the §1 motivation experiment: packet rate vs
// per-packet computation for a run-to-completion software switch against
// the line-rate hardware pipelines.
type TensionRow struct {
	OpsPerPacket int
	// SoftwarePPS decays smoothly with work.
	SoftwarePPS float64
	// RMTPPS is flat at the pipeline clock while the program fits, then 0
	// (infeasible) — hardware gives no partial credit.
	RMTPPS      float64
	RMTFeasible bool
	// DRMTPPS decays 1/ops like software but from a much higher base
	// (deterministic processors), with a hard schedule budget.
	DRMTPPS      float64
	DRMTFeasible bool
	// ADCPPPS like RMT but with the larger per-traversal budget (array
	// units) and no recirculation cliff at multi-key programs.
	ADCPPPS      float64
	ADCPFeasible bool
}

// Tension sweeps per-packet operation counts. A hardware "op" here is one
// table match or register update; an RMT traversal provides one op per
// stage (scalar), an ADCP traversal up to ArrayWidth per stage.
func Tension(opCounts []int) (*stats.Table, []TensionRow, error) {
	if len(opCounts) == 0 {
		opCounts = []int{1, 4, 12, 16, 64, 192, 256}
	}
	sw, err := swswitch.New(swswitch.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	rmtTarget := program.RMTTarget()
	adcpTarget := program.ADCPTarget()
	const rmtClock = 1.25e9
	const adcpClock = 1.0e9

	t := stats.NewTable(
		"§1 motivation: line rate vs run-to-completion as per-packet work grows",
		"ops/pkt", "software pps", "RMT pps", "dRMT pps", "ADCP pps",
	)
	var rows []TensionRow
	for _, ops := range opCounts {
		row := TensionRow{OpsPerPacket: ops, SoftwarePPS: sw.ThroughputPPS(ops)}
		// Feasibility on hardware: ops map to stage work. RMT: 1 op per
		// stage per traversal; no recirculation allowed for this check
		// (recirculating would sacrifice the line rate being measured).
		row.RMTFeasible = ops <= rmtTarget.Stages
		if row.RMTFeasible {
			row.RMTPPS = rmtClock
		}
		row.DRMTPPS = analytic.DRMTPPS(ops)
		row.DRMTFeasible = row.DRMTPPS > 0
		row.ADCPFeasible = ops <= adcpTarget.Stages*adcpTarget.ArrayWidth
		if row.ADCPFeasible {
			row.ADCPPPS = adcpClock
		}
		rows = append(rows, row)
		ol := lbl("ops", li(ops))
		record("tension.software_pps", row.SoftwarePPS, ol)
		record("tension.rmt_pps", row.RMTPPS, ol)
		record("tension.drmt_pps", row.DRMTPPS, ol)
		record("tension.adcp_pps", row.ADCPPPS, ol)
		cell := func(feasible bool, pps float64) string {
			if !feasible {
				return "infeasible"
			}
			return stats.FormatSI(pps)
		}
		t.AddRow(
			fmt.Sprintf("%d", ops),
			stats.FormatSI(row.SoftwarePPS),
			cell(row.RMTFeasible, row.RMTPPS),
			cell(row.DRMTFeasible, row.DRMTPPS),
			cell(row.ADCPFeasible, row.ADCPPPS),
		)
	}
	return t, rows, nil
}
