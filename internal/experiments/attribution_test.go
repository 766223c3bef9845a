package experiments

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

// withRegistryHub runs fn, which drives exported experiments, under a
// process hub carrying a fresh registry (so networks account critical-path
// chains) and returns the hub.
func withRegistryHub(t *testing.T, fn func()) *telemetry.Telemetry {
	t.Helper()
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	telemetry.WithDefault(tel, fn)
	return tel
}

// assertAttrSums checks one row's attribution against its measured CCT
// within 0.1% (the acceptance bound; the construction is exact, so any
// drift is a real accounting hole).
func assertAttrSums(t *testing.T, name string, attr telemetry.Breakdown, ok bool, cct int64) {
	t.Helper()
	if !ok {
		t.Fatalf("%s: no attribution recorded", name)
	}
	sum := int64(attr.Sum())
	if cct == 0 {
		t.Fatalf("%s: zero CCT", name)
	}
	if diff := math.Abs(float64(sum-cct)) / float64(cct); diff > 0.001 {
		t.Errorf("%s: attribution sum %d != CCT %d (%.4f%% off); breakdown %v",
			name, sum, cct, diff*100, attr)
	}
}

// TestSaturationAttributionSumsToCCT pins the tentpole's exactness claim
// on E16: for both architectures, the critical-path buckets add up to the
// measured coflow completion time, and the RMT run attributes nonzero
// time to recirculation (the paper's recirculation tax, now visible as a
// CCT component rather than a counter).
func TestSaturationAttributionSumsToCCT(t *testing.T) {
	var rows []SaturationRow
	withRegistryHub(t, func() {
		var err error
		_, rows, err = Saturation()
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, r := range rows {
		assertAttrSums(t, "saturation/"+r.Arch, r.Attr, r.AttrOK, int64(r.CCT))
	}
	for _, r := range rows {
		if r.Arch == "RMT" {
			if r.Attr.Get(telemetry.BucketRecirculation) == 0 {
				t.Errorf("RMT saturation: recirculation bucket empty; breakdown %v", r.Attr)
			}
		}
	}
}

// TestFailoverAttributionSumsToCCT pins the same exactness on E18's full
// grid, and that crashed cells attribute nonzero failover stall.
func TestFailoverAttributionSumsToCCT(t *testing.T) {
	var rows []FailoverRow
	withRegistryHub(t, func() {
		var err error
		_, rows, err = Failover(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	sawStall := false
	for _, r := range rows {
		name := "failover/" + r.Arch
		assertAttrSums(t, name, r.Attr, r.AttrOK, int64(r.CCT))
		stall := r.Attr.Get(telemetry.BucketFailoverStall)
		if stall > 0 {
			sawStall = true
		}
		// A crash that actually inflated the CCT (a cell where the outage
		// bit, not one where everything was already committed) must show
		// up in the failover_stall bucket.
		if r.CrashFrac > 0 && r.Inflation > 1.5 && stall == 0 {
			t.Errorf("%s crash %g inflation %.2f: failover_stall bucket empty; breakdown %v",
				name, r.CrashFrac, r.Inflation, r.Attr)
		}
	}
	if !sawStall {
		t.Fatal("no cell in the default failover sweep attributed any failover stall")
	}
}

// TestSaturationEventsLinear keeps E16's event count proportional to its
// packets: a send, an arrival, an admission wake-up and a delivery each,
// whatever the queue at the switch. The busy-switch requeue herd this
// replaced fired ~100 events per packet here and grew with the square of the
// burst, which only a benchmark used to notice.
func TestSaturationEventsLinear(t *testing.T) {
	tel := withRegistryHub(t, func() {
		if _, _, err := Saturation(); err != nil {
			t.Fatal(err)
		}
	})
	fired, injected := map[string]float64{}, map[string]float64{}
	for _, m := range tel.Metrics.Snapshot().Metrics {
		switch m.Name {
		case "net.engine.fired_events":
			fired[m.Labels["net"]] = m.Value
		case "net.injected_pkts":
			injected[m.Labels["net"]] = m.Value
		}
	}
	if len(fired) != 2 {
		t.Fatalf("saturation built %d networks, want one per architecture", len(fired))
	}
	for net, f := range fired {
		if pkts := injected[net]; pkts == 0 || f > 8*pkts {
			t.Errorf("net %s fired %v events for %v injected packets, want at most 8 per packet", net, f, pkts)
		}
	}
}
