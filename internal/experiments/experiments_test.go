package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable2Output(t *testing.T) {
	tbl, rows := Table2()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	out := tbl.String()
	for _, want := range []string{"640 Gbps", "51200 Gbps", "0.95", "1.25", "1.62"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Output(t *testing.T) {
	tbl, rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	out := tbl.String()
	for _, want := range []string{"0.60", "1.19", "495", "84"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestKeyRateShape(t *testing.T) {
	_, rows, err := KeyRate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// RMT key rate is flat (≈pps) at every width; ADCP scales linearly.
	base := rows[0]
	if math.Abs(base.RMTKeyRate-base.ADCPKeyRate) > 1 {
		t.Error("width 1 should be equal on both")
	}
	for _, r := range rows {
		if math.Abs(r.RMTKeyRate-base.RMTKeyRate) > 1 {
			t.Errorf("RMT key rate moved at width %d: %v", r.Width, r.RMTKeyRate)
		}
		wantSpeedup := float64(r.Width)
		if math.Abs(r.Speedup-wantSpeedup) > 1e-9 {
			t.Errorf("width %d speedup = %v, want %v", r.Width, r.Speedup, wantSpeedup)
		}
		// Simulator cross-check: cycles ratio equals the speedup.
		if r.MeasuredCyclesRMT != r.Width || r.MeasuredCyclesADCP != 1 {
			t.Errorf("width %d measured cycles %d/%d, want %d/1",
				r.Width, r.MeasuredCyclesRMT, r.MeasuredCyclesADCP, r.Width)
		}
	}
	// The §3.2 claim: 16-wide ≈ order of magnitude.
	last := rows[len(rows)-1]
	if last.Speedup < 10 {
		t.Errorf("16-wide speedup = %v, want ≥10 (order of magnitude)", last.Speedup)
	}
	// Goodput improves monotonically with width.
	for i := 1; i < len(rows); i++ {
		if rows[i].Goodput <= rows[i-1].Goodput {
			t.Error("goodput not monotone in width")
		}
	}
	if _, _, err := KeyRate([]int{99}); err == nil {
		t.Error("bad width accepted")
	}
}

func TestReplicationShape(t *testing.T) {
	_, rows, err := Replication(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Closed form: effective capacity divides by k on RMT only.
		if r.RMTEffective != 64*1024/r.KeysPerPacket {
			t.Errorf("k=%d RMT effective %d", r.KeysPerPacket, r.RMTEffective)
		}
		if r.ADCPEffective != 64*1024 {
			t.Errorf("k=%d ADCP effective %d", r.KeysPerPacket, r.ADCPEffective)
		}
		// Compiler agrees.
		if r.RMTReplication != r.KeysPerPacket {
			t.Errorf("k=%d compiler replication %d", r.KeysPerPacket, r.RMTReplication)
		}
		if r.RMTSRAM != 2048*r.KeysPerPacket || r.ADCPSRAM != 2048 {
			t.Errorf("k=%d SRAM %d/%d", r.KeysPerPacket, r.RMTSRAM, r.ADCPSRAM)
		}
		// Live switches agree: RMT effective capacity = 4096/k per
		// pipeline; ADCP holds the full 4096.
		if r.RMTMeasuredCap != 4096/r.KeysPerPacket {
			t.Errorf("k=%d measured RMT cap %d, want %d", r.KeysPerPacket, r.RMTMeasuredCap, 4096/r.KeysPerPacket)
		}
		if r.ADCPMeasuredCap != 4096 {
			t.Errorf("k=%d measured ADCP cap %d", r.KeysPerPacket, r.ADCPMeasuredCap)
		}
	}
}

func TestConvergenceShape(t *testing.T) {
	_, rows, err := Convergence(DefaultConvergenceConfig(), []int{2, 8, 15})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.ADCPRecircTraversals != 0 {
			t.Errorf("ADCP recirculated (%d)", r.ADCPRecircTraversals)
		}
		if r.Workers > 4 && r.RMTRecircTraversals == 0 {
			t.Errorf("width %d: RMT shows no recirculation", r.Workers)
		}
		if i > 0 && r.RMTRecircTraversals < rows[i-1].RMTRecircTraversals {
			t.Error("RMT recirculation not growing with coflow width")
		}
		if r.PinnedPortFraction != 0.25 {
			t.Errorf("pinned fraction = %v", r.PinnedPortFraction)
		}
	}
	// The wide-coflow case: RMT burns a large ingress share.
	last := rows[len(rows)-1]
	if last.RMTOverhead < 0.3 {
		t.Errorf("15-worker RMT overhead = %v, want ≥0.3", last.RMTOverhead)
	}
	if _, _, err := Convergence(DefaultConvergenceConfig(), []int{16}); err == nil {
		t.Error("workers == ports accepted")
	}
}

func TestTensionShape(t *testing.T) {
	_, rows, err := Tension(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Software decays monotonically; RMT flat then infeasible; crossover
	// exists: at low ops hardware ≫ software, at high ops software still
	// runs while RMT cannot.
	sawRMTInfeasible := false
	for i, r := range rows {
		if i > 0 && r.SoftwarePPS > rows[i-1].SoftwarePPS {
			t.Error("software throughput increased with work")
		}
		if r.RMTFeasible && r.RMTPPS != 1.25e9 {
			t.Errorf("RMT pps = %v while feasible", r.RMTPPS)
		}
		if !r.RMTFeasible {
			sawRMTInfeasible = true
			if r.SoftwarePPS <= 0 {
				t.Error("software should still run where RMT cannot")
			}
		}
	}
	if !sawRMTInfeasible {
		t.Error("sweep never exceeded RMT's program budget")
	}
	// ADCP's budget is an order of magnitude bigger (array units).
	feasADCP := 0
	feasRMT := 0
	for _, r := range rows {
		if r.ADCPFeasible {
			feasADCP++
		}
		if r.RMTFeasible {
			feasRMT++
		}
	}
	if feasADCP <= feasRMT {
		t.Errorf("ADCP feasible points (%d) should exceed RMT's (%d)", feasADCP, feasRMT)
	}
}

func TestMultiClockShape(t *testing.T) {
	_, rows, err := MultiClock(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MemoryClockMult != r.ArrayWidth {
			t.Errorf("width %d needs mult %d", r.ArrayWidth, r.MemoryClockMult)
		}
		if r.PipelineCycles != 1 {
			t.Errorf("width %d took %d pipeline cycles", r.ArrayWidth, r.PipelineCycles)
		}
	}
	// 16-wide needs a 16 GHz memory at a 1 GHz pipeline — the scalability
	// concern §4 raises about this design option.
	last := rows[len(rows)-1]
	if last.MemoryClockGHz != 16 {
		t.Errorf("16-wide memory clock = %v GHz", last.MemoryClockGHz)
	}
}

func TestCongestionShape(t *testing.T) {
	_, mono, inter := Congestion()
	if mono.PeakCongestion <= inter.PeakCongestion {
		t.Errorf("monolithic %.3f ≤ interleaved %.3f", mono.PeakCongestion, inter.PeakCongestion)
	}
}

func TestWalk(t *testing.T) {
	tbl, rep, err := Walk()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.EgressPort != 9 {
		t.Fatalf("report %+v", rep)
	}
	// Port 3 with 1:2 demux owns ingress pipelines 6 and 7.
	if rep.IngressPipeline != 6 && rep.IngressPipeline != 7 {
		t.Errorf("ingress pipeline %d", rep.IngressPipeline)
	}
	if rep.CentralPipeline < 0 {
		t.Error("no central traversal recorded")
	}
	if rep.TM1Enqueued != 1 || rep.TM2Enqueued != 1 {
		t.Errorf("TM counts %d/%d", rep.TM1Enqueued, rep.TM2Enqueued)
	}
	out := tbl.String()
	for _, region := range []string{"RX demux", "traffic manager 1", "global partitioned area", "traffic manager 2", "TX"} {
		if !strings.Contains(out, region) {
			t.Errorf("walk table missing %q", region)
		}
	}
}

func TestGlobalArea(t *testing.T) {
	_, rep, err := GlobalArea()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PortsReached != 12 {
		t.Errorf("results reached %d ports, want all 12 workers", rep.PortsReached)
	}
	if rep.CrossPipelineDeliveries == 0 {
		t.Error("no cross-pipeline deliveries — Figure 5 not demonstrated")
	}
	if !rep.MergeOrdered || rep.MergedCount != 20 {
		t.Errorf("merge: ordered=%v count=%d", rep.MergeOrdered, rep.MergedCount)
	}
	// Partitioning spread: every central pipeline used (8 chunks over 8
	// pipelines).
	for i, n := range rep.TraversalsPerCentral {
		if n == 0 {
			t.Errorf("central pipeline %d idle", i)
		}
	}
}

func TestTable1(t *testing.T) {
	tbl, rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Every application completed on both architectures with nonzero CCT.
	for _, r := range rows {
		if r.RMTCCT <= 0 || r.ADCPCCT <= 0 {
			t.Errorf("%s: CCTs %v/%v", r.App, r.RMTCCT, r.ADCPCCT)
		}
	}
	// RMT needed recirculation for the stateful coflow apps.
	if rows[0].RMTRecirc == 0 {
		t.Error("ML on RMT shows no recirculation")
	}
	if rows[1].RMTRecirc == 0 {
		t.Error("DB on RMT shows no recirculation")
	}
	// Graph: RMT SRAM ≫ ADCP SRAM (replication × pipelines).
	if rows[2].RMTSRAM <= rows[2].ADCPSRAM {
		t.Errorf("graph SRAM: RMT %d ≤ ADCP %d", rows[2].RMTSRAM, rows[2].ADCPSRAM)
	}
	out := tbl.String()
	if !strings.Contains(out, "ML training") || !strings.Contains(out, "Group communication") {
		t.Error("table missing application rows")
	}
}

func TestCoflowSchedShape(t *testing.T) {
	_, results, err := CoflowSched(DefaultCoflowSchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d disciplines", len(results))
	}
	byName := map[string]CoflowSchedResult{}
	for _, r := range results {
		byName[r.Discipline] = r
		// Every discipline completes every coflow.
		if len(r.PerCoflow) != 3 {
			t.Errorf("%s completed %d coflows", r.Discipline, len(r.PerCoflow))
		}
	}
	fifo := byName["FIFO (packet-unit)"]
	fq := byName["fair queueing (flow-unit)"]
	scf := byName["shortest-coflow-first (coflow-unit)"]
	// The Sincronia ordering: packet-unit FIFO traps the mice behind the
	// elephant; flow-unit fairness helps but still splits bandwidth per
	// member flow of the 8-flow elephant; coflow-unit SCF is best. All
	// three finish the elephant at the same time (work conservation).
	if !(scf.MeanCCT < fq.MeanCCT && fq.MeanCCT < fifo.MeanCCT) {
		t.Errorf("mean CCT ordering violated: SCF %v, FQ %v, FIFO %v",
			scf.MeanCCT, fq.MeanCCT, fifo.MeanCCT)
	}
	if scf.MaxCCT != fifo.MaxCCT || fq.MaxCCT != fifo.MaxCCT {
		t.Errorf("work conservation violated: %v/%v/%v", scf.MaxCCT, fq.MaxCCT, fifo.MaxCCT)
	}
	// Bad config rejected.
	if _, _, err := CoflowSched(CoflowSchedConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestLandscapeShape(t *testing.T) {
	_, rows, err := Landscape()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d architectures", len(rows))
	}
	byArch := map[string]LandscapeRow{}
	for _, r := range rows {
		byArch[r.Arch] = r
	}
	sw := byArch["software (run-to-completion)"]
	rmtRow := byArch["RMT (line-rate pipeline)"]
	drmtRow := byArch["dRMT (disaggregated processors)"]
	adcp := byArch["ADCP (coflow processor)"]
	// Hardware ≫ software at modest programs.
	if rmtRow.PPSAt8Ops <= sw.PPSAt8Ops || adcp.PPSAt8Ops <= sw.PPSAt8Ops {
		t.Error("hardware did not beat software at 8 ops")
	}
	// Only ADCP has array matching; only RMT fragments per stage.
	if !adcp.ArrayMatch || rmtRow.ArrayMatch || drmtRow.ArrayMatch {
		t.Error("array-match column wrong")
	}
	if !rmtRow.StageFragmentation || drmtRow.StageFragmentation || adcp.StageFragmentation {
		t.Error("fragmentation column wrong")
	}
	// RMT's program budget is the smallest bounded one.
	if rmtRow.MaxOps >= drmtRow.MaxOps || rmtRow.MaxOps >= adcp.MaxOps {
		t.Error("RMT should have the smallest program budget")
	}
}

func TestDemuxSweepShape(t *testing.T) {
	_, rows, err := DemuxSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Clock scales as 1/m; pipelines as 16·m; spread uniform at 64/m.
	base := rows[0].RequiredClockGHz
	for i, r := range rows {
		m := r.Factor
		wantClock := base / float64(m)
		if r.RequiredClockGHz < wantClock*0.99 || r.RequiredClockGHz > wantClock*1.01 {
			t.Errorf("m=%d clock %.3f, want %.3f", m, r.RequiredClockGHz, wantClock)
		}
		if r.IngressPipelines != 16*m {
			t.Errorf("m=%d pipelines %d", m, r.IngressPipelines)
		}
		for j, n := range r.MeasuredSpread {
			if n != uint64(64/m) {
				t.Errorf("m=%d pipeline %d got %d packets, want %d", m, j, n, 64/m)
			}
		}
		_ = i
	}
}

func TestBufferSweepShape(t *testing.T) {
	_, rows, err := BufferSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Loss decreases monotonically with buffer; the largest buffer loses
	// nothing and the smallest loses most of the fan-out.
	for i := 1; i < len(rows); i++ {
		if rows[i].LossRate > rows[i-1].LossRate {
			t.Errorf("loss rose with buffer: %v then %v", rows[i-1].LossRate, rows[i].LossRate)
		}
	}
	if rows[len(rows)-1].Dropped != 0 {
		t.Errorf("largest buffer dropped %d", rows[len(rows)-1].Dropped)
	}
	if rows[0].LossRate < 0.5 {
		t.Errorf("one-packet buffer loss = %v, want heavy loss", rows[0].LossRate)
	}
	// Conservation: delivered + dropped = 64 for every row.
	for _, r := range rows {
		if r.Delivered+r.Dropped != 64 {
			t.Errorf("buf %d: %d + %d != 64", r.BufferBytes, r.Delivered, r.Dropped)
		}
	}
	// Peak occupancy never exceeds the budget.
	for _, r := range rows {
		if r.PeakBytes > r.BufferBytes {
			t.Errorf("peak %d exceeded budget %d", r.PeakBytes, r.BufferBytes)
		}
	}
}

func TestPowerShape(t *testing.T) {
	_, rows, err := Power()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Demuxing reduces total power monotonically despite more pipelines
	// (cube law dominates), and per-pipeline gate area shrinks.
	for i := 1; i < len(rows); i++ {
		if rows[i].RelativePower >= rows[i-1].RelativePower {
			t.Errorf("power not decreasing: %v then %v", rows[i-1].RelativePower, rows[i].RelativePower)
		}
		if rows[i].RelativeArea > rows[i-1].RelativeArea {
			t.Errorf("area grew with demux")
		}
	}
	// The 1:2 design saves ≥half the power of the monolithic one.
	if rows[1].RelativePower > rows[0].RelativePower/2 {
		t.Errorf("1:2 power %v vs 1:1 %v — want ≥2× saving", rows[1].RelativePower, rows[0].RelativePower)
	}
}

func TestParseCostShape(t *testing.T) {
	_, rows, err := ParseCost()
	if err != nil {
		t.Fatal(err)
	}
	// Cost per protocol is constant across payload sizes.
	byProto := map[string][]ParseCostRow{}
	for _, r := range rows {
		byProto[r.Proto] = append(byProto[r.Proto], r)
	}
	for proto, rs := range byProto {
		for i := 1; i < len(rs); i++ {
			if rs[i].StatesVisited != rs[0].StatesVisited || rs[i].BytesConsumed != rs[0].BytesConsumed {
				t.Errorf("%s: parse cost varies with payload: %+v", proto, rs)
			}
		}
	}
	// Structured protocols cost more states than raw.
	if byProto["ml"][0].StatesVisited <= byProto["raw"][0].StatesVisited {
		t.Error("structured header should cost more parse states")
	}
}

func TestCacheHitShape(t *testing.T) {
	_, rows, err := CacheHit([]int{64, 1024}, []float64{0.9, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[[2]int]CacheHitRow{}
	for _, r := range rows {
		byKey[[2]int{r.CacheEntries, int(r.Skew * 10)}] = r
		if r.Hits+r.Misses == 0 {
			t.Fatalf("row %+v saw no keys", r)
		}
	}
	// Hit rate grows with cache size at fixed skew.
	if byKey[[2]int{1024, 9}].HitRate <= byKey[[2]int{64, 9}].HitRate {
		t.Error("hit rate did not grow with cache size")
	}
	// Higher skew → higher hit rate at fixed cache size (hot set hotter).
	if byKey[[2]int{64, 12}].HitRate <= byKey[[2]int{64, 9}].HitRate {
		t.Error("hit rate did not grow with skew")
	}
	// A 1024/4096 cache under Zipf 1.2 should absorb most GETs.
	if byKey[[2]int{1024, 12}].HitRate < 0.7 {
		t.Errorf("big cache high skew hit rate = %v, want ≥0.7", byKey[[2]int{1024, 12}].HitRate)
	}
}

func TestSaturationShape(t *testing.T) {
	_, rows, err := Saturation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	adcp, rmtRow := rows[0], rows[1]
	if adcp.Recirc != 0 {
		t.Errorf("ADCP recirculated %d", adcp.Recirc)
	}
	if rmtRow.Recirc == 0 || rmtRow.Traversals <= adcp.Traversals {
		t.Errorf("RMT traversals %d (recirc %d) vs ADCP %d", rmtRow.Traversals, rmtRow.Recirc, adcp.Traversals)
	}
	// With the switch as the bottleneck, RMT's extra traversals surface
	// as a longer completion time (≈ proportional to the traversal gap).
	ratio := float64(rmtRow.CCT) / float64(adcp.CCT)
	travRatio := float64(rmtRow.Traversals) / float64(adcp.Traversals)
	if ratio < 1.2 {
		t.Errorf("saturated CCT ratio = %.2f, want the recirculation tax visible (traversal ratio %.2f)", ratio, travRatio)
	}
}

func TestTensionDRMTColumn(t *testing.T) {
	_, rows, err := Tension(nil)
	if err != nil {
		t.Fatal(err)
	}
	sawInfeasible := false
	for i, r := range rows {
		if r.DRMTFeasible {
			// dRMT decays ∝ 1/ops but from its processor pool's base.
			if i > 0 && rows[i-1].DRMTFeasible && r.DRMTPPS > rows[i-1].DRMTPPS {
				t.Error("dRMT throughput increased with work")
			}
			// Within its budget dRMT beats software (hardware ops).
			if r.DRMTPPS <= r.SoftwarePPS {
				t.Errorf("ops=%d: dRMT %v ≤ software %v", r.OpsPerPacket, r.DRMTPPS, r.SoftwarePPS)
			}
		} else {
			sawInfeasible = true
		}
	}
	if !sawInfeasible {
		t.Error("sweep never exceeded dRMT's schedule budget")
	}
}

func TestConvergenceOverheadTracksPipelineCount(t *testing.T) {
	// The steering fraction grows with the pipeline count: with P
	// pipelines, roughly (P-1)/P of the workers sit off the aggregation
	// pipeline. Compare P=2 and P=4 at the same coflow width.
	// 15 workers span every pipeline, so the stranded fraction tracks
	// (P-1)/P: P=2 strands 8 of 15, P=4 strands 12 of 15.
	cfg2 := DefaultConvergenceConfig()
	cfg2.Pipelines = 2
	_, rows2, err := Convergence(cfg2, []int{15})
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := DefaultConvergenceConfig()
	cfg4.Pipelines = 4
	_, rows4, err := Convergence(cfg4, []int{15})
	if err != nil {
		t.Fatal(err)
	}
	if rows4[0].RMTOverhead <= rows2[0].RMTOverhead {
		t.Errorf("overhead P=4 (%v) ≤ P=2 (%v) — more pipelines should strand more workers",
			rows4[0].RMTOverhead, rows2[0].RMTOverhead)
	}
	// And the pinning fraction follows 1/P.
	if rows2[0].PinnedPortFraction != 0.5 || rows4[0].PinnedPortFraction != 0.25 {
		t.Errorf("pinning fractions %v / %v", rows2[0].PinnedPortFraction, rows4[0].PinnedPortFraction)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Every experiment must produce identical structured results across
	// runs (seeded RNGs, ordered event queues). Spot-check the two with
	// the most machinery.
	_, a, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("Table1 row %d differs across runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	_, s1, err := Saturation()
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := Saturation()
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("Saturation row %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}
