package apps

import (
	"testing"

	"repro/internal/netsim"
)

// TestParamServerRoundAllocs puts a ceiling on a whole aggregation round —
// generation, netsim.New, injection, Run and verification — on a prebuilt,
// reset switch, per delivered packet: what the benchmark's agg-line does.
func TestParamServerRoundAllocs(t *testing.T) {
	ps := PSConfig{Workers: 12, ModelSize: 4096, Width: 4}
	adcp, err := NewParamServerADCP(benchADCP(), ps)
	if err != nil {
		t.Fatal(err)
	}
	rmtSw, err := NewParamServerRMT(benchRMT(), ps)
	if err != nil {
		t.Fatal(err)
	}
	delivered := float64(ps.ModelSize / ps.Width * ps.Workers)
	for _, tc := range []struct {
		name  string
		sw    netsim.SwitchModel
		reset func()
	}{
		{"adcp", adcp, func() { ResetParamServerADCP(adcp) }},
		{"rmt", rmtSw, func() { ResetParamServerRMT(rmtSw) }},
	} {
		round := func() {
			tc.reset()
			if _, err := RunParamServer(tc.sw, netsim.DefaultConfig(16), ps, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		round() // contexts, PHVs and TM queues reach their working size
		perPkt := testing.AllocsPerRun(3, round) / delivered
		t.Logf("%s: %.3f allocations per delivered packet", tc.name, perPkt)
		if perPkt > 1.0 {
			t.Errorf("%s: a round allocates %.3f objects per delivered packet, want at most 1.0", tc.name, perPkt)
		}
	}
}
