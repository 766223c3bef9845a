package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPortPPS(t *testing.T) {
	// 10 Gbps at 84 B: 10e9/672 ≈ 14.88 Mpps; 64 ports ≈ 952 Mpps (paper §2).
	pps := PortPPS(10, 84)
	if math.Abs(pps-14.88e6) > 0.02e6 {
		t.Errorf("PortPPS(10,84) = %v", pps)
	}
	if math.Abs(64*pps-952.4e6) > 1e6 {
		t.Errorf("64 ports = %v pps, want ≈952 Mpps", 64*pps)
	}
	// 1.6 Tbps port ≈ 2.38 Bpps at smallest packet (paper §3.3).
	if got := PortPPS(1600, 84); math.Abs(got-2.38e9) > 0.01e9 {
		t.Errorf("PortPPS(1600,84) = %v, want ≈2.38e9", got)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	want := []struct {
		throughput float64
		freqGHz    float64
	}{
		{640, 0.95},
		{6400, 1.25},
		{12800, 1.62},
		{25600, 1.62},
		{51200, 1.62},
	}
	rows := Table2()
	if len(rows) != len(want) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, w := range want {
		if rows[i].ThroughputGbps != w.throughput {
			t.Errorf("row %d throughput = %v", i, rows[i].ThroughputGbps)
		}
		if got := RoundGHz(rows[i].FreqGHz * 1e9); got != w.freqGHz {
			t.Errorf("row %d freq = %.4f GHz (rounds to %v), want %v", i, rows[i].FreqGHz, got, w.freqGHz)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	want := []float64{1.62, 0.60, 1.62, 1.19}
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, w := range want {
		if got := RoundGHz(rows[i].FreqGHz * 1e9); got != w {
			t.Errorf("row %d freq = %.4f GHz (rounds to %v), want %v", i, rows[i].FreqGHz, got, w)
		}
	}
	// The demux rows use the small minimum packet again.
	if rows[1].MinPacketBytes != 84 || rows[3].MinPacketBytes != 84 {
		t.Error("demux rows should use 84 B minimum packet")
	}
}

func TestDemuxHalvesClock(t *testing.T) {
	// §3.3: "By demultiplexing a port at a 1:2 ratio, we can reduce the
	// clock speed by half."
	f1, err := DemuxFreqHz(1600, 1, 84)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := DemuxFreqHz(1600, 2, 84)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f1/f2-2) > 1e-9 {
		t.Errorf("1:2 demux ratio = %v, want exactly 2", f1/f2)
	}
	if math.Abs(f1-2.38e9) > 0.01e9 {
		t.Errorf("full-rate clock = %v, want ≈2.38 GHz", f1)
	}
	if math.Abs(f2-1.19e9) > 0.005e9 {
		t.Errorf("demuxed clock = %v, want ≈1.19 GHz", f2)
	}
	if _, err := DemuxFreqHz(800, 0, 84); err == nil {
		t.Error("demux factor 0 accepted")
	}
}

func TestPipelinesForSwitch(t *testing.T) {
	// §3.3: 64 pipelines at 51.2 Tbps (32×1.6T, 1:2), doubling at 102.4T.
	if got := PipelinesForSwitch(32, 2); got != 64 {
		t.Errorf("51.2T pipelines = %d, want 64", got)
	}
	if got := PipelinesForSwitch(64, 2); got != 128 {
		t.Errorf("102.4T pipelines = %d, want 128", got)
	}
}

func TestSwitchPPSClaim(t *testing.T) {
	// §2: 12.8 Tbps switches "can 'only' process 5-6 billion packets per
	// second" — with Table 2's 247 B minimum packet the arithmetic gives
	// ≈6.5 Bpps; the paper's 5–6 quotes vendor specs. Assert the right
	// ballpark (same order, < 8 Bpps).
	pps := SwitchPPS(12.8, 247)
	if pps < 5e9 || pps > 7e9 {
		t.Errorf("12.8T @247B = %v pps, want 5–7 Bpps ballpark", pps)
	}
}

func TestKeyRateScalarCap(t *testing.T) {
	// RMT (matchWidth 1) with scalar packets: key rate == packet rate.
	pps := 6e9
	if got := KeyRate(pps, 1, 1); got != pps {
		t.Errorf("scalar key rate = %v, want %v", got, pps)
	}
	// RMT with 16 keys per packet: 16 passes → same 6 Bops/s (no gain).
	if got := KeyRate(pps, 16, 1); math.Abs(got-pps) > 1 {
		t.Errorf("RMT 16-key key rate = %v, want %v (recirculation eats the gain)", got, pps)
	}
}

func TestKeyRateArrayBoost(t *testing.T) {
	// §3.2: 8- or 16-wide arrays push the cap by an order of magnitude.
	pps := 6e9
	r8 := KeyRate(pps, 8, 16)
	r16 := KeyRate(pps, 16, 16)
	if r8 != 8*pps {
		t.Errorf("8-wide = %v, want 8×pps", r8)
	}
	if r16 != 16*pps {
		t.Errorf("16-wide = %v, want 16×pps (the missed 16× boost)", r16)
	}
	// Wider than match width: passes required again.
	r32 := KeyRate(pps, 32, 16)
	if r32 != pps/2*32 {
		t.Errorf("32 keys over 16-wide = %v, want %v", r32, pps/2*32)
	}
}

func TestPasses(t *testing.T) {
	cases := []struct{ e, p, want int }{
		{1, 1, 1}, {16, 1, 16}, {16, 16, 1}, {17, 16, 2}, {16, 8, 2},
		{0, 4, 1}, {5, 0, 5},
	}
	for _, c := range cases {
		if got := Passes(c.e, c.p); got != c.want {
			t.Errorf("Passes(%d,%d) = %d, want %d", c.e, c.p, got, c.want)
		}
	}
}

func TestEffectiveTableCapacity(t *testing.T) {
	// Figure 3: replication divides capacity on RMT; array matching keeps it.
	if got := EffectiveTableCapacity(64*1024, 16, false); got != 4*1024 {
		t.Errorf("RMT k=16: %d, want 4096", got)
	}
	if got := EffectiveTableCapacity(64*1024, 16, true); got != 64*1024 {
		t.Errorf("ADCP k=16: %d, want 65536", got)
	}
	if got := EffectiveTableCapacity(64*1024, 1, false); got != 64*1024 {
		t.Errorf("k=1: %d", got)
	}
}

func TestRecirculationOverhead(t *testing.T) {
	if RecirculationOverhead(1) != 0 {
		t.Error("single pass should have zero overhead")
	}
	if got := RecirculationOverhead(2); got != 0.5 {
		t.Errorf("2 passes = %v, want 0.5", got)
	}
	if got := RecirculationOverhead(16); math.Abs(got-15.0/16.0) > 1e-12 {
		t.Errorf("16 passes = %v", got)
	}
}

func TestGoodput(t *testing.T) {
	// Scalar KV packet: 8 useful bytes over ≥84 B wire → ~9.5%.
	scalar := Goodput(1, 8, 24)
	if scalar > 0.1 {
		t.Errorf("scalar goodput = %v, want < 0.1 (subpar, §3.2)", scalar)
	}
	// 16-wide: 128 useful over 152 wire → ~84%.
	wide := Goodput(16, 8, 24)
	if wide < 0.8 {
		t.Errorf("16-wide goodput = %v, want > 0.8", wide)
	}
	if wide <= 8*scalar {
		t.Errorf("16-wide should be ≫ scalar: %v vs %v", wide, scalar)
	}
}

func TestEgressOnlyStages(t *testing.T) {
	usable, frac := EgressOnlyStages(12, 12)
	if usable != 12 || frac != 0.5 {
		t.Errorf("egress-only = %d stages (%.2f), want 12 (0.5) — half the stages", usable, frac)
	}
	if u, f := EgressOnlyStages(0, 0); u != 0 || f != 0 {
		t.Errorf("zero stages: %d %v", u, f)
	}
}

// Property: key rate is monotone in match width and never exceeds
// pps × keys.
func TestKeyRateMonotoneProperty(t *testing.T) {
	f := func(keysRaw, widthRaw uint8) bool {
		keys := int(keysRaw)%64 + 1
		width := int(widthRaw)%64 + 1
		pps := 1e9
		r := KeyRate(pps, keys, width)
		rWider := KeyRate(pps, keys, width+1)
		return rWider >= r-1e-6 && r <= pps*float64(keys)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: passes × parallelism always covers all elements.
func TestPassesCoverProperty(t *testing.T) {
	f := func(eRaw, pRaw uint8) bool {
		e := int(eRaw)%1000 + 1
		p := int(pRaw)%64 + 1
		passes := Passes(e, p)
		return passes*p >= e && (passes-1)*p < e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: goodput is in (0, 1) and monotone in element count.
func TestGoodputProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		g := Goodput(n, 8, 24)
		gMore := Goodput(n+1, 8, 24)
		return g > 0 && g < 1 && gMore >= g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoundGHz(t *testing.T) {
	if got := RoundGHz(1.6161e9); got != 1.62 {
		t.Errorf("RoundGHz = %v", got)
	}
	if got := RoundGHz(0.9523e9); got != 0.95 {
		t.Errorf("RoundGHz = %v", got)
	}
}

func TestThroughputModel(t *testing.T) {
	// 32 processors × 1 GHz × IPC 1.
	if got := DRMTPPS(1); got != 32e9 {
		t.Errorf("1-op throughput = %v", got)
	}
	if got := DRMTPPS(32); got != 1e9 {
		t.Errorf("32-op throughput = %v", got)
	}
	if got := DRMTPPS(1000); got != 0 {
		t.Errorf("oversized program throughput = %v, want 0", got)
	}
	// 64×100G at 84 B ≈ 9.52 Bpps line rate: a 3-op program holds it
	// (10.7 Bpps), a 4-op one does not (8 Bpps).
	lineRate := SwitchPPS(6.4, MinWirePacket)
	if DRMTPPS(3) < lineRate {
		t.Error("3-op program should hold line rate")
	}
	if DRMTPPS(4) >= lineRate {
		t.Error("4-op program should NOT hold line rate")
	}
}

// The schedule bound is exact: the 96th op still runs, the 97th does not.
func TestScheduleBudgetEnforced(t *testing.T) {
	if DRMTPPS(DRMTMaxOps) != 32e9/DRMTMaxOps {
		t.Errorf("%d-op program = %v pps", DRMTMaxOps, DRMTPPS(DRMTMaxOps))
	}
	if got := DRMTPPS(DRMTMaxOps + 1); got != 0 {
		t.Errorf("%d-op program = %v pps, want 0 (over the schedule)", DRMTMaxOps+1, got)
	}
}

// Property: throughput is inversely proportional to ops within the budget.
func TestThroughputInverseProperty(t *testing.T) {
	f := func(raw uint8) bool {
		ops := int(raw)%DRMTMaxOps + 1
		got := DRMTPPS(ops)
		want := 32e9 / float64(ops)
		return got > want*0.999 && got < want*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRelativePowerCubeLaw(t *testing.T) {
	m := DefaultPowerModel()
	if got := m.RelativePower(1.62e9); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("reference power = %v, want 1.0", got)
	}
	// Halving the clock within the DVFS window cuts power ~8×.
	half := m.RelativePower(0.81e9)
	if math.Abs(half-0.125) > 1e-9 {
		t.Errorf("half-clock power = %v, want 0.125", half)
	}
	// Below FMin the curve flattens to ∝ f (no more voltage headroom).
	atMin := m.RelativePower(0.5e9)
	below := m.RelativePower(0.25e9)
	if math.Abs(below-atMin/2) > 1e-9 {
		t.Errorf("below-FMin scaling: %v vs %v/2", below, atMin)
	}
	if m.RelativePower(0) != 0 {
		t.Error("zero frequency should cost nothing")
	}
}

func TestIsoThroughputDemuxSavesPower(t *testing.T) {
	// §3.3 + §4: the 1.6 Tbps port at 2.38 GHz versus two pipelines at
	// 1.19 GHz — same packets moved, much less power, despite doubling
	// the pipeline count.
	m := DefaultPowerModel()
	one := m.IsoThroughputPower(2.38e9, 1)
	two := m.IsoThroughputPower(2.38e9, 2)
	if two >= one {
		t.Errorf("demux power %v ≥ single-pipeline %v", two, one)
	}
	// Cube law: 2 × (1/2)³ = 1/4 of the single-pipeline power.
	if math.Abs(two/one-0.25) > 1e-9 {
		t.Errorf("power ratio = %v, want 0.25", two/one)
	}
	if m.IsoThroughputPower(1e9, 0) != m.IsoThroughputPower(1e9, 1) {
		t.Error("ways<1 not clamped")
	}
}

func TestRelativeGateArea(t *testing.T) {
	if got := RelativeGateArea(1.62e9, 1.62e9); got != 1.0 {
		t.Errorf("reference area = %v", got)
	}
	if got := RelativeGateArea(0.81e9, 1.62e9); got != 0.5 {
		t.Errorf("half-clock area = %v, want 0.5", got)
	}
	// Floor: area never shrinks below half.
	if got := RelativeGateArea(0.1e9, 1.62e9); got != 0.5 {
		t.Errorf("floored area = %v", got)
	}
	if got := RelativeGateArea(1e9, 0); got != 1 {
		t.Errorf("bad ref = %v", got)
	}
}

// Property: power is monotone in frequency.
func TestPowerMonotoneProperty(t *testing.T) {
	m := DefaultPowerModel()
	f := func(raw uint16) bool {
		f1 := float64(raw%3000) * 1e6
		f2 := f1 + 50e6
		return m.RelativePower(f2) >= m.RelativePower(f1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
