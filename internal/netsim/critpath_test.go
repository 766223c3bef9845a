package netsim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runUnderHub builds and exercises a network under a goroutine-local hub.
func runUnderHub(t *testing.T, tel *telemetry.Telemetry, cfg Config, sw SwitchModel, drive func(n *Network)) *Network {
	t.Helper()
	var n *Network
	telemetry.WithHub(tel, func() {
		var err error
		n, err = New(cfg, sw)
		if err != nil {
			t.Fatal(err)
		}
		drive(n)
	})
	return n
}

// TestAttributionExactOnCleanPath checks the chain accounting against the
// analytically known single-packet path: every picosecond of the CCT is
// attributed, and each bucket carries exactly its modeled delay.
func TestAttributionExactOnCleanPath(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	cfg := Config{Hosts: 2, LinkGbps: 100, PropDelay: 500 * sim.Nanosecond, SwitchLatency: sim.Microsecond}
	p := rawPkt(0, 1, 9)
	n := runUnderHub(t, tel, cfg, echoSwitch{}, func(n *Network) {
		n.SendAt(0, p, 0)
		n.Run()
	})
	bd, ok := n.Attribution(9)
	if !ok {
		t.Fatal("no attribution")
	}
	st := n.Tracker().Status(9)
	if got, want := bd.Sum(), st.CCT(); got != want {
		t.Fatalf("attribution sum %v != CCT %v", got, want)
	}
	ser := sim.Time(float64(p.WireLen()*8) / 100 * 1000)
	if got, want := bd.Get(telemetry.BucketSerialization), 2*ser; got != want {
		t.Errorf("serialization %v, want %v (both wire legs)", got, want)
	}
	if got, want := bd.Get(telemetry.BucketPropagation), 2*500*sim.Nanosecond; got != want {
		t.Errorf("propagation %v, want %v", got, want)
	}
	if got, want := bd.Get(telemetry.BucketPipeline), sim.Microsecond; got != want {
		t.Errorf("pipeline %v, want %v", got, want)
	}
	for _, b := range []telemetry.Bucket{telemetry.BucketSource, telemetry.BucketQueueing,
		telemetry.BucketRecirculation, telemetry.BucketRetx, telemetry.BucketFailoverStall} {
		if v := bd.Get(b); v != 0 {
			t.Errorf("%s = %v on a clean single-packet run, want 0", b, v)
		}
	}
}

// TestAttributionOffWithoutConsumer pins the default hot path: with no hub,
// or a hub carrying only the always-on flight recorder, no causal chain is
// accounted at all, so nothing per packet is paid for spans nobody reads.
func TestAttributionOffWithoutConsumer(t *testing.T) {
	for name, tel := range map[string]*telemetry.Telemetry{
		"no hub":      nil,
		"flight only": {Flight: telemetry.NewFlightRecorder(16)},
	} {
		n := runUnderHub(t, tel, DefaultConfig(4), echoSwitch{}, func(n *Network) {
			n.SendAt(0, rawPkt(0, 2, 5), 0)
			n.Run()
		})
		if st := n.Tracker().Status(5); st == nil || st.DeliverPkts != 1 {
			t.Fatalf("%s: packet not delivered: %+v", name, st)
		}
		if bd, ok := n.Attribution(5); ok {
			t.Errorf("%s: chain accounting ran without a registry or tracer: %v", name, bd)
		}
	}
}

// TestAttributionPublishedAsRegistrySeries checks the cct.attr.* export
// appears with net+coflow labels after Run.
func TestAttributionPublishedAsRegistrySeries(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	runUnderHub(t, tel, DefaultConfig(4), echoSwitch{}, func(n *Network) {
		n.SendAt(0, rawPkt(0, 2, 5), 0)
		n.Run()
	})
	var buf bytes.Buffer
	if err := tel.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		telemetry.BucketSerialization.SeriesName(),
		telemetry.BucketPropagation.SeriesName(),
		`"coflow": "5"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry export missing %q", want)
		}
	}
}

// TestSpanEventsCoverCCT runs with a tracer attached and checks the span
// category carries the coflow root span plus segment spans whose summed
// durations on the winning chain equal the CCT.
func TestSpanEventsCoverCCT(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}
	n := runUnderHub(t, tel, DefaultConfig(4), echoSwitch{}, func(n *Network) {
		n.Tracker().Expect(5, 1)
		n.SendAt(0, rawPkt(0, 2, 5), 0)
		n.Run()
	})
	var coflowSpans, segments int
	for _, ev := range tel.Tracer.Events() {
		if ev.Cat != "span" {
			continue
		}
		switch {
		case ev.Name == "span.coflow":
			coflowSpans++
			if got, want := ev.Dur, n.Tracker().Status(5).CCT(); got != want {
				t.Errorf("coflow span duration %v != CCT %v", got, want)
			}
		case strings.HasPrefix(ev.Name, "span."):
			segments++
		}
	}
	if coflowSpans != 1 {
		t.Fatalf("got %d span.coflow events, want 1", coflowSpans)
	}
	if segments == 0 {
		t.Fatal("no segment spans emitted")
	}
}

// TestSwitchWaitIsOneQueueingSpan: eight packets reach a 1 µs-per-packet
// switch together on idle links, so the k-th waits k µs at the switch and
// nowhere else. Each wait is one span.queueing segment of exactly that
// length — the admission queue charges it in a single advance — and the
// attribution still tiles the CCT.
func TestSwitchWaitIsOneQueueingSpan(t *testing.T) {
	const hosts = 8
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}
	cfg := DefaultConfig(hosts)
	cfg.ServiceRatePPS = 1e6
	n := runUnderHub(t, tel, cfg, &busyCountingSwitch{costEach: 1}, func(n *Network) {
		n.Tracker().Expect(5, hosts)
		for h := 0; h < hosts; h++ {
			n.SendAt(h, rawPkt(h, (h+1)%hosts, 5), 0)
		}
		n.Run()
	})
	var waits []sim.Time
	for _, ev := range tel.Tracer.Events() {
		if ev.Cat == "span" && ev.Name == "span.queueing" {
			waits = append(waits, ev.Dur)
		}
	}
	if len(waits) != hosts-1 {
		t.Fatalf("%d span.queueing segments %v, want one per waiting packet (%d)", len(waits), waits, hosts-1)
	}
	for i, w := range waits {
		if want := sim.Time(i+1) * sim.Microsecond; w != want {
			t.Errorf("wait %d lasted %v, want %v", i, w, want)
		}
	}
	bd, ok := n.Attribution(5)
	if st := n.Tracker().Status(5); !ok || bd.Sum() != st.CCT() {
		t.Fatalf("attribution %v (ok %v) does not sum to CCT %v", bd, ok, st.CCT())
	}
	if got, want := bd.Get(telemetry.BucketQueueing), sim.Time(hosts-1)*sim.Microsecond; got != want {
		t.Errorf("critical path queued %v, want %v", got, want)
	}
}

// TestFlightRecorderDumpsOnBudgetExhaustion pins the tentpole's triage
// path: a run that trips a run-level invariant (here the event budget)
// dumps the flight-recorder ring, including the most recent packet events.
func TestFlightRecorderDumpsOnBudgetExhaustion(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Flight: telemetry.NewFlightRecorder(64)}
	var sink bytes.Buffer
	runUnderHub(t, tel, DefaultConfig(4), echoSwitch{}, func(n *Network) {
		n.FlightSink = &sink
		// Enough packets that the budget trips mid-run.
		for i := 0; i < 8; i++ {
			n.SendAt(0, rawPkt(0, 2, 5), sim.Time(i)*sim.Microsecond)
		}
		n.Engine().SetEventBudget(6)
		n.Run()
	})
	out := sink.String()
	if !strings.Contains(out, "flight recorder dump") {
		t.Fatalf("no flight dump on budget exhaustion; sink: %q", out)
	}
	if !strings.Contains(out, "event budget exhausted") {
		t.Errorf("dump reason missing budget error: %q", out)
	}
	if !strings.Contains(out, "send") {
		t.Errorf("dump carries no packet events: %q", out)
	}
}

// TestCleanRunDoesNotDump pins that healthy runs stay silent.
func TestCleanRunDoesNotDump(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Flight: telemetry.NewFlightRecorder(64)}
	var sink bytes.Buffer
	runUnderHub(t, tel, DefaultConfig(4), echoSwitch{}, func(n *Network) {
		n.FlightSink = &sink
		n.SendAt(0, rawPkt(0, 2, 5), 0)
		n.Run()
	})
	if sink.Len() != 0 {
		t.Fatalf("clean run dumped: %q", sink.String())
	}
}
