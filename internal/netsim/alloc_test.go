package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// sinkSwitch absorbs every packet and reports one traversal for each, so a
// service-rate network around it exercises admission and nothing else.
type sinkSwitch struct{ traversals uint64 }

func (s *sinkSwitch) Process(*packet.Packet) ([]*packet.Packet, error) {
	s.traversals++
	return nil, nil
}

func (s *sinkSwitch) IngressTraversals() uint64 { return s.traversals }

// TestAdmissionQueueSteadyState pins the cost of waiting for a busy switch:
// a burst queues its own arrival records and one wake-up event per admission
// drains them, so a round fires a send, an arrival and at most one wake-up
// per packet — no event per lost race — and once the record and event pools
// are warm none of it allocates.
func TestAdmissionQueueSteadyState(t *testing.T) {
	const burst = 64
	cfg := DefaultConfig(4)
	cfg.ServiceRatePPS = 1e6
	sw := &sinkSwitch{}
	n, err := New(cfg, sw)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*packet.Packet, burst)
	for i := range pkts {
		pkts[i] = rawPkt(i%4, 0, 1)
	}
	round := func() {
		for i, p := range pkts {
			n.SendAt(i%4, p, n.Now())
		}
		n.Run()
	}
	round() // warm the pools
	fired := n.Engine().Fired()
	round()
	if events := n.Engine().Fired() - fired; events > 3*burst {
		t.Errorf("a %d-packet round fired %d events, want at most 3 per packet", burst, events)
	}
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Errorf("a %d-packet round through a busy switch allocates %v objects, want 0", burst, got)
	}
	if len(n.Errors()) != 0 || sw.traversals != n.Injected() {
		t.Errorf("errors %v; %d of %d packets processed", n.Errors(), sw.traversals, n.Injected())
	}
}

// hopRound returns a real ADCP switch and a function that sends hops
// packets through it, host → switch → host, on the network it is given.
func hopRound(t *testing.T, hops int) (*core.Switch, func(n *Network)) {
	ccfg := core.DefaultConfig()
	ccfg.Pipe.Stages = 4
	sw, err := core.New(ccfg, core.Programs{})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*packet.Packet, hops)
	for i := range pkts {
		pkts[i] = rawPkt(i%ccfg.Ports, (i+1)%ccfg.Ports, 1)
	}
	return sw, func(n *Network) {
		for i, p := range pkts {
			p.EgressPort, p.Recirculations = -1, 0
			n.SendAt(i%ccfg.Ports, p, n.Now())
		}
		n.Run()
		if len(n.Errors()) != 0 || n.Delivered() != n.Injected() {
			t.Fatalf("errors %v; delivered %d of %d", n.Errors(), n.Delivered(), n.Injected())
		}
	}
}

// TestHopAllocsSteadyState puts a ceiling on a whole host → switch → host
// hop through a real ADCP switch with warm pools: what remains is the
// switch's output slice, which the caller owns, and now and then a
// doubling of the receiving host's Received log. The ceiling holds without a
// hub, under the hub every run without export flags carries, whose recorder
// keeps only its flight ring (a ring entry allocates nothing), and under the
// one every -metrics run carries, a registry beside that recorder: there each
// packet's causal account and every fork of it are cut from the network's
// chain slab (1.26 objects a hop when each was allocated on its own).
func TestHopAllocsSteadyState(t *testing.T) {
	const hops = 256
	for _, c := range []struct {
		name string
		tel  *telemetry.Telemetry
	}{
		{"no hub", nil},
		{"flight only", &telemetry.Telemetry{Recorder: telemetry.NewRecorder(false)}},
		{"metrics", &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Recorder: telemetry.NewRecorder(false)}},
	} {
		sw, round := hopRound(t, hops)
		n := runUnderHub(t, c.tel, DefaultConfig(sw.Config().Ports), sw, round) // warms the pools
		perHop := testing.AllocsPerRun(20, func() { round(n) }) / hops
		t.Logf("%s: %.2f allocations per hop", c.name, perHop)
		if perHop > 1.05 {
			t.Errorf("%s: a hop allocates %.2f objects, want at most 1.05", c.name, perHop)
		}
	}
}

// TestHopAllocsFreshNetwork is the same hop the way every harness pays for
// it: on a network and an engine built for the round, with every send
// posted before the first event runs, so no pool is warm. Events and
// records come a chunk at a time; beside the steady state's output slice
// there is the network itself and each host's Received log growing from
// nothing.
func TestHopAllocsFreshNetwork(t *testing.T) {
	const hops = 256
	sw, round := hopRound(t, hops)
	fresh := func() {
		n, err := New(DefaultConfig(sw.Config().Ports), sw)
		if err != nil {
			t.Fatal(err)
		}
		round(n)
	}
	fresh() // the switch's own pools
	perHop := testing.AllocsPerRun(20, fresh) / hops
	t.Logf("%.2f allocations per hop", perHop)
	if perHop > 1.6 {
		t.Errorf("a hop on a fresh network allocates %.2f objects, want at most 1.6", perHop)
	}
}
