package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/phv"
	"repro/internal/program"
	"repro/internal/rmt"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ReplicationRow is one point of the Figure 3 table-replication experiment.
type ReplicationRow struct {
	KeysPerPacket int
	// Analytical effective capacities of one 64K-entry stage.
	RMTEffective  int
	ADCPEffective int
	// Compiler-verified placement on the two targets.
	RMTReplication int
	RMTSRAM        int
	ADCPSRAM       int
	// Measured: distinct entries a 4096-entry KV-cache stage accepted
	// before overflowing, RMT vs ADCP.
	RMTMeasuredCap  int
	ADCPMeasuredCap int
}

// Replication runs the Figure 3 experiment three ways — closed form,
// program compiler, and live switches — and checks they agree.
func Replication(keysPerPacket []int) (*stats.Table, []ReplicationRow, error) {
	if len(keysPerPacket) == 0 {
		keysPerPacket = []int{1, 2, 4, 8, 16}
	}
	const stageEntries = 64 * 1024
	const liveEntries = 4096 // live switches use smaller stages for speed
	t := newTable(telemetry.Hub().Reg(), "Figure 3: table replication under scalar processing (64K-entry stage)",
		col{head: "keys/pkt", label: "keys_per_pkt"}, col{head: "RMT copies"},
		col{head: "RMT effective", metric: "exp.replication.rmt_effective_entries"},
		col{head: "ADCP effective", metric: "exp.replication.adcp_effective_entries"},
		col{head: "RMT SRAM/entry"},
		col{head: "measured RMT cap", metric: "exp.replication.rmt_measured_cap"},
		col{head: "measured ADCP cap", metric: "exp.replication.adcp_measured_cap"})
	var rows []ReplicationRow
	for _, k := range keysPerPacket {
		row := ReplicationRow{
			KeysPerPacket: k,
			RMTEffective:  analytic.EffectiveTableCapacity(stageEntries, k, false),
			ADCPEffective: analytic.EffectiveTableCapacity(stageEntries, k, true),
		}

		// Compiler placement of a cache table matched k-wide.
		spec := &program.Spec{
			Name:   fmt.Sprintf("cache-k%d", k),
			Tables: []program.TableSpec{{Name: "cache", Kind: program.MatchExact, Entries: 2048, KeysPerPacket: k}},
		}
		rp, err := program.Compile(spec, program.RMTTarget())
		if err != nil {
			return nil, nil, err
		}
		ap, err := program.Compile(spec, program.ADCPTarget())
		if err != nil {
			return nil, nil, err
		}
		row.RMTReplication = rp.Tables["cache"].Replication
		row.RMTSRAM = rp.Tables["cache"].SRAMEntries
		row.ADCPSRAM = ap.Tables["cache"].SRAMEntries

		// Live measurement: install until full on both KV caches.
		rcap, acap, err := measureLiveCapacity(k, liveEntries)
		if err != nil {
			return nil, nil, err
		}
		row.RMTMeasuredCap = rcap
		row.ADCPMeasuredCap = acap

		rows = append(rows, row)
		t.AddRow(k, row.RMTReplication, row.RMTEffective, row.ADCPEffective, row.RMTSRAM/2048,
			row.RMTMeasuredCap, row.ADCPMeasuredCap)
	}
	return t.Table, rows, nil
}

// measureLiveCapacity installs entries into both switch builds until the
// RMT one overflows, returning the distinct-entry capacities.
func measureLiveCapacity(keysPerPacket, stageEntries int) (rmtCap, adcpCap int, err error) {
	rcfg := rmt.DefaultConfig()
	rcfg.Ports = 8
	rcfg.Pipelines = 2
	rcfg.Pipe.Stages = 2
	rcfg.Pipe.TableEntriesPerStage = stageEntries
	rcfg.Pipe.RegisterCellsPerStage = 64

	acfg := core.DefaultConfig()
	acfg.Ports = 8
	acfg.DemuxFactor = 1
	acfg.CentralPipelines = 1 // single partition isolates pure capacity
	acfg.EgressPipelines = 2
	acfg.Pipe.Stages = 2
	acfg.Pipe.TableEntriesPerStage = stageEntries
	acfg.Pipe.RegisterCellsPerStage = 64
	acfg.Pipe.PHVBudget = phv.ADCPBudget

	kv := apps.KVConfig{KeysPerPacket: keysPerPacket, CacheEntries: stageEntries}
	rsw, err := apps.NewKVCacheRMT(rcfg, kv)
	if err != nil {
		return 0, 0, err
	}
	asw, err := apps.NewKVCacheADCP(acfg, kv)
	if err != nil {
		return 0, 0, err
	}
	fill := func(install func(k, v uint32) error) (n int) {
		for k := uint32(0); int(k) < 2*stageEntries && install(k, k) == nil; k++ {
			n++
		}
		return n
	}
	return fill(rsw.Install), fill(asw.Install), nil
}
