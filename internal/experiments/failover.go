package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/ha"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// FailoverRow is one (arch, crash time, sync interval) point of the
// switch-failover sweep.
type FailoverRow struct {
	Arch string // "rmt" | "adcp"
	// CrashFrac positions the crash as a fraction of the architecture's
	// plain (unreplicated, fault-free) CCT; 0 = no crash (pure replication
	// overhead). CrashAt is the resulting absolute time.
	CrashFrac float64
	CrashAt   sim.Time
	// SyncInterval is the replication batching interval (0 = immediate).
	SyncInterval sim.Time
	CCT          sim.Time
	// Inflation is CCT / the same architecture's plain CCT: the combined
	// cost of output-commit ack deferral plus (when crashed) the outage.
	Inflation float64
	// RecoveryPs is promotion minus crash (0 without a crash);
	// ReplayDepth counts in-flight deltas drained after the crash.
	RecoveryPs  sim.Time
	ReplayDepth uint64
	// DeltaBytes is the sync-channel volume; ReplOverhead is DeltaBytes
	// per application byte originally sent.
	DeltaBytes   uint64
	ReplOverhead float64
	Retransmits  uint64
	// Attr is the critical-path decomposition of CCT (AttrOK false when
	// telemetry was off for the run). When present its buckets sum
	// exactly to CCT; failover downtime lands in the failover_stall
	// bucket.
	Attr   telemetry.Breakdown
	AttrOK bool
}

// Failover sweeps switch-crash time × replication sync interval × {RMT,
// ADCP} over the parameter-server aggregation round with a warm standby
// configured. Every run's worker weights are verified against the exact
// expected sums — a packet double-applied (or lost) across the failover
// would fail the run — and the conservation ledger is auto-asserted. nil
// arguments select the default sweep: crash at {none, 40%, 80%} of the
// plain CCT, sync intervals {immediate, 2 µs}.
func Failover(crashFracs []float64, syncIntervals []sim.Time) (*stats.Table, []FailoverRow, error) {
	if len(crashFracs) == 0 {
		crashFracs = []float64{0, 0.4, 0.8}
	}
	if len(syncIntervals) == 0 {
		syncIntervals = []sim.Time{0, 2 * sim.Microsecond}
	}
	ports := DefaultConvergenceConfig().Ports
	rec := faults.DefaultRecovery()
	hub := telemetry.Hub()

	// Stage 1 — the plain runs (no standby, no faults) that anchor the
	// crash times and inflation baselines. One independent point per
	// architecture.
	archs := []string{"rmt", "adcp"}
	bases := make([]sim.Time, len(archs))
	baseSlot := func(i int) any { return &bases[i] }
	baseMeta := func(i int) (string, int64) { return archs[i] + " baseline", 0 }
	if err := runPointsSlot(hub, "failover.baseline", len(archs), baseSlot, baseMeta, func(i int, tel *telemetry.Telemetry) error {
		arch := archs[i]
		plainSW, err := faultRoundSwitch(arch)
		if err != nil {
			return err
		}
		plain, err := runFaultRound(plainSW, netConfig(tel, ports))
		if err != nil {
			return fmt.Errorf("failover %s baseline: %w", arch, err)
		}
		bases[i] = plain.CCT
		newTable(tel.Reg(), "", col{label: "arch"}, col{metric: "exp.failover.base_cct_ps"}).AddRow(arch, plain.CCT)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Stage 2 — the full (arch × crash fraction × sync interval) grid.
	// Every cell depends only on its architecture's baseline, so the grid
	// fans out across the worker pool. Each point fills its row slot and a
	// one-row table fragment, recorded into the point's own hub; the
	// fragments merge in point order below, reproducing the sequential
	// table exactly.
	type cell struct {
		arch   string
		base   sim.Time
		frac   float64
		syncIv sim.Time
		seed   uint64
	}
	var cells []cell
	for ai, arch := range archs {
		point := 0
		for _, frac := range crashFracs {
			for _, syncIv := range syncIntervals {
				cells = append(cells, cell{
					arch: arch, base: bases[ai], frac: frac, syncIv: syncIv,
					seed: pointSeed(0xFA_1707, point, arch),
				})
				point++
			}
		}
	}
	// Each point's row and one-row table fragment live in one composite
	// slot, so the run journal persists and restores them together.
	type pointResult struct {
		Row  FailoverRow
		Frag *stats.Table
	}
	results := make([]pointResult, len(cells))
	slot := func(i int) any { return &results[i] }
	meta := func(i int) (string, int64) {
		c := cells[i]
		return fmt.Sprintf("%s crash=%g sync=%v", c.arch, c.frac, c.syncIv), int64(c.seed)
	}
	if err := runPointsSlot(hub, "failover", len(cells), slot, meta, func(i int, tel *telemetry.Telemetry) error {
		c := cells[i]
		primary, err := faultRoundSwitch(c.arch)
		if err != nil {
			return err
		}
		standby, err := faultRoundSwitch(c.arch)
		if err != nil {
			return err
		}
		ncfg := netConfig(tel, ports)
		ncfg.Recovery = &rec
		ncfg.Standby = standby
		opt := ha.DefaultOptions()
		opt.SyncInterval = c.syncIv
		ncfg.HA = &opt
		crashAt := sim.Time(c.frac * float64(c.base))
		if crashAt > 0 {
			ncfg.Faults = &faults.Plan{
				Seed:          c.seed,
				SwitchCrashAt: crashAt,
			}
		}
		res, err := runFaultRound(primary, ncfg)
		if err != nil {
			return fmt.Errorf("failover %s crash %g sync %v: %w", c.arch, c.frac, c.syncIv, err)
		}
		st := res.Network.HA().Stats()
		led := res.Network.Ledger()
		row := FailoverRow{
			Arch:         c.arch,
			CrashFrac:    c.frac,
			CrashAt:      crashAt,
			SyncInterval: c.syncIv,
			CCT:          res.CCT,
			Inflation:    float64(res.CCT) / float64(c.base),
			ReplayDepth:  st.ReplayDepth,
			DeltaBytes:   st.DeltaBytes,
			Retransmits:  led.UplinkRetx + led.DownlinkRetx,
		}
		if st.Promotions > 0 {
			row.RecoveryPs = st.PromotedAt - st.CrashAt
		}
		if sent := res.Network.Tracker().Status(25).SentBytes; sent > 0 {
			row.ReplOverhead = float64(row.DeltaBytes) / float64(sent)
		}
		row.Attr, row.AttrOK = res.Network.Attribution(25)
		results[i].Row = row
		crash := any("none")
		if crashAt > 0 {
			crash = []any{"%.0f%%=%v", c.frac * 100, crashAt}
		}
		frag := failoverTable(tel.Reg())
		frag.AddRow(c.arch, c.frac, crash, int64(c.syncIv), c.syncIv, row.CCT, row.Inflation, row.RecoveryPs,
			row.ReplayDepth, row.DeltaBytes, row.ReplOverhead, row.Retransmits, st.MaxStalenessPs)
		results[i].Frag = frag.Table
		return nil
	}); err != nil {
		return nil, nil, err
	}

	rows := make([]FailoverRow, len(cells))
	t := failoverTable(hub.Reg())
	for i := range results {
		rows[i] = results[i].Row
		t.Merge(results[i].Frag)
	}
	return t.Table, rows, nil
}

// failoverTable declares the failover sweep's table. A crash and a sync
// interval label their point by fraction and picoseconds; the cells spell
// them out. A recovery of zero means no standby promoted: a promotion
// waits out the controller's failover delay.
func failoverTable(reg *telemetry.Registry) *table {
	return newTable(reg,
		"Failover sweep: parameter-server CCT across a switch crash with warm-standby replication",
		col{head: "arch", label: "arch"}, col{label: "crash"}, col{head: "crash"}, col{label: "sync_ps"},
		col{head: "sync", cell: zeroAs("immediate", f("%v"))},
		col{head: "CCT", metric: "exp.failover.cct_ps"},
		col{head: "inflation", cell: f("%.2fx"), metric: "exp.failover.cct_inflation"},
		col{head: "recovery", cell: zeroAs("-", f("%v")), metric: "exp.failover.recovery_ps"},
		col{head: "replay", metric: "exp.failover.replay_depth"},
		col{head: "delta bytes", metric: "exp.failover.delta_bytes"},
		col{head: "repl overhead", cell: f("%.3f"), metric: "exp.failover.repl_overhead"},
		col{head: "retx", metric: "exp.failover.retransmits"}, col{metric: "exp.failover.staleness_max_ps"})
}
