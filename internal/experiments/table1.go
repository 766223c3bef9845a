package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Table1Row summarizes one Table 1 application run on both architectures.
type Table1Row struct {
	App string
	// CCTs under identical arrival schedules.
	RMTCCT  sim.Time
	ADCPCCT sim.Time
	// RMTRecirc is the extra ingress traversals RMT burned.
	RMTRecirc uint64
	// SRAM entries consumed for the app's tables (0 when table-free).
	RMTSRAM  int
	ADCPSRAM int
	// Note records the restructuring RMT needed.
	Note string
}

// Table1 runs all four application patterns end-to-end on both
// architectures with identical inputs and verified outputs, on a perfect
// network.
func Table1() (*stats.Table, []Table1Row, error) {
	return Table1WithNet(func(c netsim.Config) netsim.Config { return c })
}

// Table1WithNet runs Table 1 with every application's network configuration
// passed through mod — the hook fault experiments use to overlay a loss
// plan and recovery knobs onto the exact same workloads and verification.
func Table1WithNet(mod func(netsim.Config) netsim.Config) (*stats.Table, []Table1Row, error) {
	tel := telemetry.Hub()
	withHub := func(c netsim.Config) netsim.Config { c.Telemetry = tel; return mod(c) }
	var rows []Table1Row
	for _, app := range []struct {
		name string
		run  func(func(netsim.Config) netsim.Config) (Table1Row, error)
	}{{"ML", table1ML}, {"DB", table1DB}, {"graph", table1Graph}, {"group", table1Group}} {
		r, err := app.run(withHub)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", app.name, err)
		}
		rows = append(rows, r)
	}

	t := newTable(tel.Reg(), "Table 1: coflow applications on RMT vs ADCP (identical workloads, verified results)",
		col{head: "application", label: "app"}, col{head: "RMT CCT", metric: "exp.table1.rmt_cct_ps"},
		col{head: "ADCP CCT", metric: "exp.table1.adcp_cct_ps"},
		col{head: "RMT recirc traversals", metric: "exp.table1.rmt_recirc_traversals"}, col{head: "RMT SRAM"},
		col{head: "ADCP SRAM"}, col{head: "RMT restructuring"})
	for _, r := range rows {
		t.AddRow(r.App, r.RMTCCT, r.ADCPCCT, r.RMTRecirc, r.RMTSRAM, r.ADCPSRAM, r.Note)
	}
	return t.Table, rows, nil
}

func table1ML(mod func(netsim.Config) netsim.Config) (Table1Row, error) {
	cc := DefaultConvergenceConfig()
	ps := apps.PSConfig{Workers: 12, ModelSize: 64, Width: 4}
	rsw, err := apps.NewParamServerRMT(rmtConfig(cc), ps)
	if err != nil {
		return Table1Row{}, err
	}
	rres, err := apps.RunParamServer(rsw, mod(netsim.DefaultConfig(cc.Ports)), ps, 21, 77)
	if err != nil {
		return Table1Row{}, err
	}
	asw, err := apps.NewParamServerADCP(adcpConfig(cc), ps)
	if err != nil {
		return Table1Row{}, err
	}
	ares, err := apps.RunParamServer(asw, mod(netsim.DefaultConfig(cc.Ports)), ps, 21, 77)
	if err != nil {
		return Table1Row{}, err
	}
	return Table1Row{
		App:       "ML training (all-to-all aggregation)",
		RMTCCT:    rres.CCT,
		ADCPCCT:   ares.CCT,
		RMTRecirc: rsw.RecirculationTraversals(),
		Note:      "single agg pipeline + loopback steering; ≤1 weight per stage",
	}, nil
}

func table1DB(mod func(netsim.Config) netsim.Config) (Table1Row, error) {
	cc := DefaultConvergenceConfig()
	db := apps.DBConfig{KeySpace: 64, DestHosts: []int{12, 13, 14}, TuplesPerPacket: 4}
	params := workload.DBParams{
		CoflowID: 22, Query: 1, Sources: 6, TuplesPerSource: 100,
		TuplesPerPacket: 4, KeySpace: db.KeySpace, Selectivity: 0.5,
		Gap: 100 * sim.Nanosecond, Seed: 8,
	}

	// ADCP: data + flush through the data plane.
	asw, err := apps.NewDBShuffleADCP(adcpConfig(cc), db)
	if err != nil {
		return Table1Row{}, err
	}
	injs, _, err := workload.DB(params)
	if err != nil {
		return Table1Row{}, err
	}
	aInjs := repartition(injs, func(d *packet.Decoded) [][]packet.DBTuple {
		return apps.PartitionTuples(d.DB.Tuples, asw.Config().CentralPipelines, db.TuplesPerPacket)
	}, func(d *packet.Decoded, batch []packet.DBTuple) packet.Encoder {
		return &packet.DBHeader{Query: d.DB.Query, Tuples: batch}
	})
	an, err := netsim.New(mod(netsim.DefaultConfig(cc.Ports)), asw)
	if err != nil {
		return Table1Row{}, err
	}
	for _, inj := range aInjs {
		an.SendAt(inj.Src, inj.Pkt, inj.At)
	}
	an.Run()
	adcpDataPhase := an.Now() // all tuples aggregated
	// Coordinator flush after the data phase (results exit in-dataplane).
	for p := 0; p < asw.Config().CentralPipelines; p++ {
		an.SendAt(0, apps.FlushPacket(22, 1, p), adcpDataPhase)
	}
	an.Run()
	adcpAgg := apps.DBAggregatesADCP(asw, db)

	// RMT: data through the plane, aggregate read via control plane.
	rsw, err := apps.NewDBShuffleRMT(rmtConfig(cc), db)
	if err != nil {
		return Table1Row{}, err
	}
	rn, err := netsim.New(mod(netsim.DefaultConfig(cc.Ports)), rsw)
	if err != nil {
		return Table1Row{}, err
	}
	for _, inj := range injs {
		rn.SendAt(inj.Src, inj.Pkt, inj.At)
	}
	rn.Run()
	rmtDataPhase := rn.Now()
	rmtAgg := apps.DBAggregatesRMT(rsw, db)

	// Both aggregates must match ground truth (and each other).
	want := groundTruthDB(injs)
	if err := sameCounts(want, adcpAgg); err != nil {
		return Table1Row{}, fmt.Errorf("ADCP aggregates: %w", err)
	}
	if err := sameCounts(want, rmtAgg); err != nil {
		return Table1Row{}, fmt.Errorf("RMT aggregates: %w", err)
	}

	// Compare the data (aggregation) phases — the RMT deployment has no
	// in-dataplane result path at all (its sweep runs via the control
	// plane), so only the data phase is comparable.
	return Table1Row{
		App:       "DB analytics (filter-aggregate-reshuffle)",
		RMTCCT:    rmtDataPhase,
		ADCPCCT:   adcpDataPhase,
		RMTRecirc: rsw.RecirculationTraversals(),
		Note:      "loopback steering; control-plane result sweep",
	}, nil
}

func table1Graph(mod func(netsim.Config) netsim.Config) (Table1Row, error) {
	cc := DefaultConvergenceConfig()
	gc := apps.GraphConfig{Hosts: cc.Ports, EdgesPerPacket: 8}
	edges := []packet.Edge{}
	for v := uint32(0); v < 32; v++ {
		edges = append(edges, packet.Edge{Src: v, Dst: (v + 1) % 32}, packet.Edge{Src: v, Dst: (v + 5) % 32})
	}
	candidates, _ := workload.Graph(workload.GraphParams{
		CoflowID: 23, Hosts: 6, Vertices: 32, EdgesPerHost: 24,
		EdgesPerPacket: 8, Rounds: 2, Gap: 100 * sim.Nanosecond, Seed: 12,
	})

	asw, err := apps.NewGraphMineADCP(adcpConfig(cc), gc)
	if err != nil {
		return Table1Row{}, err
	}
	for _, e := range edges {
		if err := asw.InstallEdge(e); err != nil {
			return Table1Row{}, err
		}
	}
	an, err := netsim.New(mod(netsim.DefaultConfig(cc.Ports)), asw)
	if err != nil {
		return Table1Row{}, err
	}
	aInjs := repartition(candidates, func(d *packet.Decoded) [][]packet.Edge {
		return apps.PartitionEdges(d.Graph.Edges, asw.Config().CentralPipelines, gc.EdgesPerPacket)
	}, func(d *packet.Decoded, batch []packet.Edge) packet.Encoder {
		return &packet.GraphHeader{Round: d.Graph.Round, Edges: batch}
	})
	for _, inj := range aInjs {
		an.SendAt(inj.Src, inj.Pkt, inj.At)
	}
	an.Run()

	rcfg := rmtConfig(cc)
	rsw, err := apps.NewGraphMineRMT(rcfg, gc)
	if err != nil {
		return Table1Row{}, err
	}
	for _, e := range edges {
		if err := rsw.InstallEdge(e); err != nil {
			return Table1Row{}, err
		}
	}
	rn, err := netsim.New(mod(netsim.DefaultConfig(cc.Ports)), rsw)
	if err != nil {
		return Table1Row{}, err
	}
	for _, inj := range candidates {
		rn.SendAt(inj.Src, inj.Pkt, inj.At)
	}
	rn.Run()

	return Table1Row{
		App:      "Graph pattern mining (BSP filter)",
		RMTCCT:   lastDeliverOrNow(rn, 23),
		ADCPCCT:  lastDeliverOrNow(an, 23),
		RMTSRAM:  rsw.SRAMUsed(),
		ADCPSRAM: asw.SRAMUsed(),
		Note:     fmt.Sprintf("edge table ×%d replication ×%d pipelines", gc.EdgesPerPacket, rcfg.Pipelines),
	}, nil
}

func table1Group(mod func(netsim.Config) netsim.Config) (Table1Row, error) {
	cc := DefaultConvergenceConfig()
	members := map[uint32][]int{5: {1, 6, 10, 14}}
	run := apps.GroupRun{CoflowID: 24, GroupID: 5, Source: 0, Chunks: 20, ChunkLen: 512, Members: 4}
	hetero := apps.DefaultNetHetero(cc.Ports, map[int]float64{14: 10}) // one slow NIC

	asw, err := apps.NewGroupCommADCP(adcpConfig(cc), apps.GroupConfig{Members: members})
	if err != nil {
		return Table1Row{}, err
	}
	ares, err := apps.RunGroupComm(asw, mod(hetero), run)
	if err != nil {
		return Table1Row{}, err
	}
	rsw, err := apps.NewGroupCommRMT(rmtConfig(cc), apps.GroupConfig{Members: members})
	if err != nil {
		return Table1Row{}, err
	}
	rres, err := apps.RunGroupComm(rsw, mod(hetero), run)
	if err != nil {
		return Table1Row{}, err
	}
	return Table1Row{
		App:     "Group communication (hetero NICs)",
		RMTCCT:  rres.CCT,
		ADCPCCT: ares.CCT,
		Note:    "group table in every ingress pipeline",
	}, nil
}

// --- helpers ---

func groundTruthDB(injs []workload.Injection) map[uint32]uint32 {
	want := make(map[uint32]uint32)
	var d packet.Decoded
	for _, inj := range injs {
		if err := d.DecodePacket(inj.Pkt); err == nil {
			for _, tp := range d.DB.Tuples {
				want[tp.Key] += tp.Measure
			}
		}
	}
	return want
}

func sameCounts(want, got map[uint32]uint32) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("key %d = %d, want %d", k, got[k], v)
		}
	}
	return nil
}

// repartition re-batches each injection into partition-pure packets of
// the same protocol, source and time: batches splits one decoded
// injection's items, and body makes a packet body of one batch.
func repartition[T any](injs []workload.Injection, batches func(d *packet.Decoded) [][]T, body func(d *packet.Decoded, batch []T) packet.Encoder) []workload.Injection {
	var out []workload.Injection
	var d packet.Decoded
	for _, inj := range injs {
		if err := d.DecodePacket(inj.Pkt); err != nil {
			continue
		}
		for _, batch := range batches(&d) {
			pkt := packet.Build(packet.Header{
				Proto: d.Base.Proto, SrcPort: d.Base.SrcPort, CoflowID: d.Base.CoflowID, FlowID: d.Base.FlowID,
			}, body(&d, batch))
			out = append(out, workload.Injection{Src: inj.Src, Pkt: pkt, At: inj.At})
		}
	}
	return out
}

// lastDeliverOrNow returns the coflow CCT when deliveries happened, or the
// network's final time for consume-only runs (aggregation phases deliver
// nothing until flushed).
func lastDeliverOrNow(n *netsim.Network, coflowID uint32) sim.Time {
	st := n.Tracker().Status(coflowID)
	if st != nil && st.DeliverPkts > 0 {
		return st.CCT()
	}
	return n.Now()
}
