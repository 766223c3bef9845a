package netsim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// echoSwitch returns each packet on its DstPort (no pipeline modeling).
type echoSwitch struct{}

func (echoSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	p.EgressPort = int(d.Base.DstPort)
	return []*packet.Packet{p}, nil
}

func rawPkt(src, dst, coflow int) *packet.Packet {
	return packet.BuildRaw(packet.Header{
		DstPort: uint16(dst), SrcPort: uint16(src), CoflowID: uint32(coflow),
	}, 100)
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Config{
		{Hosts: 0, LinkGbps: 1},
		{Hosts: 1, LinkGbps: 0},
		{Hosts: 1, LinkGbps: 1, PropDelay: -1},
		// These two used to run silently without a service model.
		{Hosts: 1, LinkGbps: 1, ServiceRatePPS: -1},
		{Hosts: 1, LinkGbps: 1, ServiceRatePPS: math.NaN()},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEndToEndDelivery(t *testing.T) {
	n, err := New(DefaultConfig(4), echoSwitch{})
	if err != nil {
		t.Fatal(err)
	}
	n.SendAt(0, rawPkt(0, 2, 1), 0)
	n.Run()
	if n.Injected() != 1 || n.Delivered() != 1 {
		t.Fatalf("injected=%d delivered=%d", n.Injected(), n.Delivered())
	}
	h := n.Host(2)
	if len(h.Received) != 1 {
		t.Fatalf("host 2 received %d", len(h.Received))
	}
	if h.RxBytes == 0 {
		t.Error("RxBytes not counted")
	}
	if len(n.Errors()) != 0 {
		t.Errorf("errors: %v", n.Errors())
	}
}

func TestTimingSerializedAndPropagated(t *testing.T) {
	cfg := Config{Hosts: 2, LinkGbps: 100, PropDelay: 500 * sim.Nanosecond, SwitchLatency: sim.Microsecond}
	n, _ := New(cfg, echoSwitch{})
	var deliveredAt sim.Time
	n.OnDeliver = func(host int, p *packet.Packet, now sim.Time) { deliveredAt = now }
	p := rawPkt(0, 1, 1)
	n.SendAt(0, p, 0)
	n.Run()
	// 120 wire bytes (100 payload + 20 header) at 100 Gbps = 9.6 ns
	// serialization, each way, + 2×500 ns prop + 1 µs switch.
	ser := sim.Time(float64(p.WireLen()*8) / 100 * 1000)
	want := ser + 500*sim.Nanosecond + sim.Microsecond + ser + 500*sim.Nanosecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestUplinkSerializationQueues(t *testing.T) {
	cfg := Config{Hosts: 2, LinkGbps: 1, PropDelay: 0, SwitchLatency: 0} // slow link
	n, _ := New(cfg, echoSwitch{})
	var times []sim.Time
	n.OnDeliver = func(host int, p *packet.Packet, now sim.Time) { times = append(times, now) }
	// Two packets sent at t=0 from the same host must serialize.
	n.SendAt(0, rawPkt(0, 1, 1), 0)
	n.SendAt(0, rawPkt(0, 1, 1), 0)
	n.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[1] <= times[0] {
		t.Errorf("no serialization: %v then %v", times[0], times[1])
	}
	// The gap equals one wire time on the bottleneck link.
	ser := sim.Time(float64(rawPkt(0, 1, 1).WireLen()*8) / 1 * 1000)
	if times[1]-times[0] != ser {
		t.Errorf("gap = %v, want %v", times[1]-times[0], ser)
	}
}

func TestCoflowTracking(t *testing.T) {
	n, _ := New(DefaultConfig(4), echoSwitch{})
	n.Tracker().Expect(7, 2)
	n.SendAt(0, rawPkt(0, 1, 7), 0)
	n.SendAt(2, rawPkt(2, 3, 7), 0)
	n.Run()
	if !n.Tracker().Done(7) {
		t.Error("coflow 7 not done")
	}
	st := n.Tracker().Status(7)
	if st.SentPkts != 2 || st.DeliverPkts != 2 {
		t.Errorf("status %+v", st)
	}
	if st.CCT() <= 0 {
		t.Errorf("CCT = %v", st.CCT())
	}
	if err := n.Tracker().CheckConservation(0); err != nil {
		t.Error(err)
	}
}

func TestHostlessPortDeliveryIsError(t *testing.T) {
	n, _ := New(DefaultConfig(2), echoSwitch{}) // hosts 0..1 only
	n.SendAt(0, rawPkt(0, 5, 1), 0)             // dst 5 has no host
	n.Run()
	if len(n.Errors()) == 0 {
		t.Error("delivery on hostless port not flagged")
	}
	if n.Delivered() != 0 {
		t.Error("hostless delivery counted")
	}
}

func TestSendAtPanicsOnBadHost(t *testing.T) {
	n, _ := New(DefaultConfig(2), echoSwitch{})
	defer func() {
		if recover() == nil {
			t.Error("bad host accepted")
		}
	}()
	n.SendAt(9, rawPkt(0, 1, 1), 0)
}

func TestWithRealRMTSwitch(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.Ports = 8
	cfg.Pipelines = 2
	pipe := cfg.Pipe
	pipe.Stages = 4
	cfg.Pipe = pipe
	sw, err := rmt.New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(DefaultConfig(8), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.SendAt(i, rawPkt(i, (i+1)%8, 1), sim.Time(i)*sim.Microsecond)
	}
	n.Run()
	if n.Delivered() != 8 {
		t.Errorf("delivered %d, want 8; errs=%v", n.Delivered(), n.Errors())
	}
	for i := 0; i < 8; i++ {
		if len(n.Host(i).Received) != 1 {
			t.Errorf("host %d received %d", i, len(n.Host(i).Received))
		}
	}
}

func TestWithRealADCPSwitch(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Ports = 8
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 2
	pipe := cfg.Pipe
	pipe.Stages = 4
	cfg.Pipe = pipe
	sw, err := core.New(cfg, core.Programs{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(DefaultConfig(8), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.SendAt(i, rawPkt(i, 7-i, 2), 0)
	}
	n.Run()
	if n.Delivered() != 8 {
		t.Errorf("delivered %d; errs=%v", n.Delivered(), n.Errors())
	}
}

func TestPerHostLinkSpeeds(t *testing.T) {
	// Host 1 has a 10× slower NIC than host 0: the same packet takes 10×
	// longer to arrive.
	cfg := Config{Hosts: 3, LinkGbps: 100, PerHostGbps: []float64{100, 10, 100}}
	n, _ := New(cfg, echoSwitch{})
	times := map[int]sim.Time{}
	n.OnDeliver = func(host int, p *packet.Packet, now sim.Time) { times[host] = now }
	n.SendAt(2, rawPkt(2, 0, 1), 0)
	n.SendAt(2, rawPkt(2, 1, 2), 0)
	n.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	// Downlink serialization dominates the difference; the slow host's
	// delivery must be strictly later.
	if times[1] <= times[0] {
		t.Errorf("slow NIC delivered at %v, fast at %v", times[1], times[0])
	}
}

// busyCountingSwitch forwards and reports fake traversal costs.
type busyCountingSwitch struct {
	traversals uint64
	costEach   uint64
}

func (b *busyCountingSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	b.traversals += b.costEach
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	p.EgressPort = int(d.Base.DstPort)
	return []*packet.Packet{p}, nil
}

func (b *busyCountingSwitch) IngressTraversals() uint64 { return b.traversals }

func TestServiceRateBackpressure(t *testing.T) {
	// Switch serving 1 Mpps (1 µs per traversal); a switch costing 2
	// traversals/packet halves the drain rate versus 1 traversal/packet.
	run := func(cost uint64) sim.Time {
		cfg := Config{Hosts: 2, LinkGbps: 10000, ServiceRatePPS: 1e6}
		sw := &busyCountingSwitch{costEach: cost}
		n, err := New(cfg, sw)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			n.SendAt(0, rawPkt(0, 1, 1), 0)
		}
		n.Run()
		if n.Delivered() != 20 {
			t.Fatalf("delivered %d", n.Delivered())
		}
		return n.Now()
	}
	t1 := run(1)
	t2 := run(2)
	// Completion with 2× traversal cost takes ~2× as long (the
	// recirculation bandwidth tax, now visible in time).
	ratio := float64(t2) / float64(t1)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("saturation ratio = %v, want ≈2 (t1=%v t2=%v)", ratio, t1, t2)
	}
}

func TestServiceRateDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig(2)
	if cfg.ServiceRatePPS != 0 {
		t.Fatal("service rate should default to disabled")
	}
	sw := &busyCountingSwitch{costEach: 100}
	n, _ := New(cfg, sw)
	n.SendAt(0, rawPkt(0, 1, 1), 0)
	n.SendAt(0, rawPkt(0, 1, 1), 0)
	n.Run()
	if n.Delivered() != 2 {
		t.Error("disabled service rate should not block")
	}
}

func TestServiceRateWithRealSwitches(t *testing.T) {
	// End-to-end: the RMT parameter-server-style recirculation doubles
	// ingress traversals; under a saturating arrival burst its completion
	// time exceeds the ADCP's (which never recirculates).
	mk := func(recirculate bool) sim.Time {
		cfg := rmt.DefaultConfig()
		cfg.Ports = 8
		cfg.Pipelines = 2
		pipe := cfg.Pipe
		pipe.Stages = 4
		cfg.Pipe = pipe
		var prog *pipeline.Program
		if recirculate {
			prog = &pipeline.Program{Funcs: []pipeline.StageFunc{
				func(st *pipeline.Stage, ctx *pipeline.Context) error {
					if ctx.ElementOffset == 0 {
						ctx.ElementOffset = 1
						ctx.Verdict = pipeline.VerdictRecirculate
					}
					return nil
				},
			}}
		}
		sw, err := rmt.New(cfg, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		ncfg := DefaultConfig(8)
		ncfg.ServiceRatePPS = 1e6
		n, err := New(ncfg, sw)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			n.SendAt(i%8, rawPkt(i%8, (i+1)%8, 1), 0)
		}
		n.Run()
		if n.Delivered() != 50 {
			t.Fatalf("delivered %d; errs %v", n.Delivered(), n.Errors())
		}
		return n.Now()
	}
	plain := mk(false)
	recirc := mk(true)
	if float64(recirc)/float64(plain) < 1.5 {
		t.Errorf("recirculating run %v vs plain %v — bandwidth tax invisible", recirc, plain)
	}
}
