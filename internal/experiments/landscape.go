package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/stats"
	"repro/internal/swswitch"
)

// LandscapeRow characterizes one architecture in the §1/§2 design space.
type LandscapeRow struct {
	Arch string
	// PPSAt8Ops is the modeled packet rate for a modest 8-op program.
	PPSAt8Ops float64
	// MaxOps is the largest per-packet program that runs at all
	// (0 = unbounded).
	MaxOps int
	// SharedState: can packets from any port reach one state instance
	// without recirculation?
	SharedState bool
	// ArrayMatch: can one traversal match a multi-element array?
	ArrayMatch bool
	// StageFragmentation: is table memory fragmented per stage?
	StageFragmentation bool
}

// Landscape compares four architectures — software run-to-completion
// (BMv2-class), RMT, dRMT, and ADCP — on the §1/§2 axes. It is the paper's
// "architectural variations" survey made executable; every row is a closed
// form.
func Landscape() (*stats.Table, []LandscapeRow, error) {
	const rmtClock = 1.25e9
	const adcpClock = 1.0e9

	sw, err := swswitch.New(swswitch.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	rows := []LandscapeRow{
		{
			Arch:        "software (run-to-completion)",
			PPSAt8Ops:   sw.ThroughputPPS(8),
			MaxOps:      0, // unbounded, just slower
			SharedState: true,
		},
		{
			Arch:               "RMT (line-rate pipeline)",
			PPSAt8Ops:          rmtClock,
			MaxOps:             12, // one op per stage per traversal
			StageFragmentation: true,
		},
		{
			Arch:        "dRMT (disaggregated processors)",
			PPSAt8Ops:   analytic.DRMTPPS(8),
			MaxOps:      analytic.DRMTMaxOps,
			SharedState: true,
		},
		{
			Arch:        "ADCP (coflow processor)",
			PPSAt8Ops:   adcpClock, // 8 ops fit one array traversal
			MaxOps:      12 * 16,   // stages × array width
			SharedState: true,      // via the global partitioned area
			ArrayMatch:  true,
		},
	}

	t := stats.NewTable(
		"§1/§2 design space: the four architecture models, executable",
		"architecture", "pps @ 8 ops", "max ops/pkt", "shared state", "array match", "per-stage fragmentation",
	)
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		record("landscape.pps_at_8ops", r.PPSAt8Ops, lbl("arch", r.Arch))
		maxOps := "unbounded"
		if r.MaxOps > 0 {
			maxOps = fmt.Sprintf("%d", r.MaxOps)
		}
		t.AddRow(r.Arch, stats.FormatSI(r.PPSAt8Ops), maxOps,
			yn(r.SharedState), yn(r.ArrayMatch), yn(r.StageFragmentation))
	}
	return t, rows, nil
}
