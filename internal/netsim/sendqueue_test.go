package netsim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// bounceSwitch returns each packet on its DstPort and reports one traversal
// for each, so a service rate makes arrivals wait.
type bounceSwitch struct{ traversals uint64 }

func (s *bounceSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	s.traversals++
	p.EgressPort = int(d.Base.DstPort)
	return []*packet.Packet{p}, nil
}

func (s *bounceSwitch) IngressTraversals() uint64 { return s.traversals }

func idPkt(src, dst int, id uint32) *packet.Packet {
	return packet.BuildRaw(packet.Header{DstPort: uint16(dst), SrcPort: uint16(src), CoflowID: 1, Seq: id}, 100)
}

const fuzzHosts = 4

// sendScheduleRun is everything FuzzSendSchedule compares between its two
// runs of a program.
type sendScheduleRun struct {
	Dispatch []string // the dispatch hook's (at, pending, fired), one per event
	Flight   string   // the flight ring's dump
	Ledger   netsim.Ledger
	Received [fuzzHosts][]uint32 // packet ids in arrival order
	Errors   string
}

// runSendSchedule interprets prog. The first byte picks the network: bit 0
// 1 % loss with ARQ, bit 1 a crash of host 1 from 3 to 12 µs (its sends
// defer to the restart), bit 2 a service rate slow enough that arrivals
// wait. Every three bytes after it are one send: by which host, when (a
// multiple of 2 µs up to 14, the same time as the send before it, or 2 µs
// before it), and whether it is posted before Run, is a run of 1 to 8 sends
// posted before Run with SendEvery (third byte 64 to 127: its low three bits
// are the length, the next two the gap in µs, and bit 5 makes the gap
// negative), or is posted from OnDeliver, after the delivery the third byte
// names, at the time of that delivery or later. Without the queues
// (armEach) a run is the SendAt loop SendEvery stands for.
func runSendSchedule(t *testing.T, prog []byte, armEach bool) sendScheduleRun {
	cfg := netsim.DefaultConfig(fuzzHosts)
	if prog[0]&3 != 0 {
		rec := faults.DefaultRecovery()
		cfg.Recovery = &rec
		cfg.Faults = &faults.Plan{Seed: uint64(prog[0])}
		if prog[0]&1 != 0 {
			cfg.Faults.Link.LossRate = 0.01
		}
		if prog[0]&2 != 0 {
			cfg.Faults.Hosts = map[int]faults.HostFaults{1: {Crash: []faults.Window{{From: 3 * sim.Microsecond, To: 12 * sim.Microsecond}}}}
		}
	}
	if prog[0]&4 != 0 {
		cfg.ServiceRatePPS = 2e6
	}
	var out sendScheduleRun
	tel := &telemetry.Telemetry{Recorder: telemetry.NewRecorder(false)}
	cfg.Telemetry = tel
	n, err := netsim.New(cfg, &bounceSwitch{})
	if err != nil {
		t.Fatal(err)
	}
	if armEach {
		n.ArmEachSend()
	}
	n.Engine().AddDispatchHook(func(at sim.Time, pending int, fired uint64) {
		out.Dispatch = append(out.Dispatch, fmt.Sprintf("%d/%d/%d", at, pending, fired))
	})
	type send struct {
		src   int
		pkt   *packet.Packet
		delay sim.Time
	}
	onDelivery := map[uint64][]send{}
	n.OnDeliver = func(int, *packet.Packet, sim.Time) {
		for _, s := range onDelivery[n.Delivered()] {
			n.SendAt(s.src, s.pkt, n.Now()+s.delay)
		}
	}
	var at sim.Time
	for id, ops := uint32(0), prog[1:]; len(ops) >= 3; id, ops = id+1, ops[3:] {
		src := int(ops[0]) % fuzzHosts
		pkt := idPkt(src, int(ops[0]>>2)%fuzzHosts, id<<4)
		switch ops[1] % 10 {
		case 8: // a tie with the send before
		case 9:
			at = max(at-2*sim.Microsecond, 0)
		default:
			at = sim.Time(ops[1]%10) * 2 * sim.Microsecond
		}
		switch {
		case ops[2] >= 128:
			k := uint64(ops[2]%16) + 1
			onDelivery[k] = append(onDelivery[k], send{src, pkt, sim.Time(ops[2]>>4&3) * sim.Microsecond})
		case ops[2] >= 64:
			count, gap := int(ops[2]&7)+1, sim.Time(ops[2]>>3&3)*sim.Microsecond
			if ops[2]&32 != 0 && gap > 0 {
				gap = -gap
				count = min(count, int(at/-gap)+1) // no send before time 0
			}
			dst, first := int(ops[0]>>2)%fuzzHosts, id<<4
			build := func(i int) *packet.Packet { return idPkt(src, dst, first|uint32(i)) }
			if !armEach {
				n.SendEvery(src, count, at, gap, build)
				break
			}
			for i := range count {
				n.SendAt(src, build(i), at+sim.Time(i)*gap)
			}
		default:
			n.SendAt(src, pkt, at)
		}
	}
	n.Run()
	var flight strings.Builder
	tel.Rec().Dump(&flight, "end of run")
	out.Flight, out.Ledger, out.Errors = flight.String(), n.Ledger(), fmt.Sprint(n.Errors())
	var d packet.Decoded
	for h := range out.Received {
		for _, p := range n.Host(h).Received {
			if err := d.DecodePacket(p); err != nil {
				t.Fatal(err)
			}
			out.Received[h] = append(out.Received[h], d.Base.Seq)
		}
	}
	return out
}

// FuzzSendSchedule holds the host send queues to the code they replaced: a
// fuzzed program of sends (see runSendSchedule) runs once with the queues
// and once with every send an event of its own from the moment it is
// posted, and the two runs must fire the same events at the same times with
// the same number pending, leave the same flight ring and ledger,
// and deliver the same packets to each host in the same order.
func FuzzSendSchedule(f *testing.F) {
	// Ties across hosts and on one host; a send earlier than its host's tail.
	f.Add([]byte{0, 0, 1, 0, 1, 8, 0, 2, 8, 0, 0, 8, 0, 0, 3, 0, 0, 9, 0, 5, 1, 0})
	// Sends from OnDeliver, at the delivery's time and later, into a busy host.
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0x81, 4, 7, 0, 4, 0, 0x91, 1, 8, 0xa2, 0, 7, 0})
	// A crashed host's deferrals land before, between and after its queue.
	f.Add([]byte{2, 1, 2, 0, 1, 2, 0, 1, 3, 0, 1, 5, 0, 1, 7, 0, 5, 8, 0, 1, 1, 0, 0, 2, 0})
	// Loss with ARQ, and a slow switch with waiters, over a burst of ties.
	f.Add([]byte{5, 0, 0, 0, 1, 8, 0, 2, 8, 0, 3, 8, 0, 4, 8, 0, 5, 8, 0, 6, 1, 0, 7, 8, 0, 0, 8, 0x83, 9, 9, 0})
	f.Add([]byte{7, 1, 2, 0, 5, 2, 0, 9, 2, 0, 13, 8, 0, 1, 4, 0, 2, 8, 0x84, 1, 6, 0, 3, 9, 0})
	// A fault seed that loses a frame each way: both retransmission timers fire.
	f.Add([]byte{81, 0, 0, 0, 5, 1, 0, 10, 2, 0, 15, 3, 0, 20, 4, 0, 25, 5, 0, 30, 6, 0, 35, 7, 0, 40, 8, 0, 45, 9, 0})
	// SendEvery runs: onto an idle host, with other hosts' sends at the
	// same times.
	f.Add([]byte{0, 4, 0, 79, 1, 1, 0, 2, 8, 0, 3, 3, 64})
	// Behind queued sends, then ties with the run's first send.
	f.Add([]byte{0, 4, 0, 0, 4, 1, 0, 4, 2, 83, 1, 2, 0, 5, 8, 0})
	// Starting before the host's tail, and with a negative gap: the loop.
	f.Add([]byte{0, 4, 7, 0, 4, 1, 84, 2, 4, 115, 3, 9, 0})
	// gap 0: every send of a run ties, across runs and with a send behind.
	f.Add([]byte{4, 0, 1, 69, 1, 8, 0, 2, 8, 69, 0, 8, 0})
	// A host that crashes partway through a run: its deferrals land behind
	// the run, then (a longer run, under loss) inside it.
	f.Add([]byte{2, 1, 0, 79, 0, 1, 0, 2, 2, 0})
	f.Add([]byte{3, 1, 0, 87, 5, 0, 79, 1, 7, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 4 || len(prog) > 1+3*64 {
			return
		}
		queued, each := runSendSchedule(t, prog, false), runSendSchedule(t, prog, true)
		if len(queued.Dispatch) != len(each.Dispatch) {
			t.Fatalf("queued run fired %d events, event-per-send run %d", len(queued.Dispatch), len(each.Dispatch))
		}
		for i := range queued.Dispatch {
			if queued.Dispatch[i] != each.Dispatch[i] {
				t.Fatalf("dispatch %d (at/pending/fired): queued %s, event per send %s", i, queued.Dispatch[i], each.Dispatch[i])
			}
		}
		if !reflect.DeepEqual(queued, each) {
			t.Fatalf("runs differ:\nqueued         %+v\nevent per send %+v", queued, each)
		}
	})
}

// heapCost returns the objects and bytes fn allocates, on one processor so
// that the runtime's own per-P caches do not blur the count.
func heapCost(fn func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestPendingSendBytes puts a ceiling on what a send costs while it waits:
// a round posted and not yet run. Posted a send at a time, 26.4 bytes, a
// queue entry and its share of a part-filled chunk (135.6 when each was a
// record and an engine event); the ceiling is 32. Posted as one SendEvery
// run per host, 0.3 bytes (the runs and their builders), under a ceiling of 1.
func TestPendingSendBytes(t *testing.T) {
	const hosts, sends, perHost = 8, 4096, 4096 / 8
	pkts := make([]*packet.Packet, sends)
	for i := range pkts {
		pkts[i] = idPkt(i/perHost, 0, uint32(i))
	}
	for _, tc := range []struct {
		name   string
		post   func(n *netsim.Network)
		maxPer float64
	}{
		{"SendAt", func(n *netsim.Network) {
			for i, p := range pkts { // host-major, as the generators emit
				n.SendAt(i/perHost, p, sim.Time(i%perHost)*sim.Microsecond)
			}
		}, 32},
		{"SendEvery", func(n *netsim.Network) {
			for h := range hosts {
				n.SendEvery(h, perHost, 0, sim.Microsecond, func(i int) *packet.Packet { return pkts[h*perHost+i] })
			}
		}, 1},
	} {
		n, err := netsim.New(netsim.DefaultConfig(hosts), &bounceSwitch{})
		if err != nil {
			t.Fatal(err)
		}
		_, bytes := heapCost(func() { tc.post(n) })
		per := float64(bytes) / sends
		t.Logf("%s: %.1f bytes per pending send", tc.name, per)
		if n.Engine().Pending() != sends || per > tc.maxPer {
			t.Fatalf("%s: %d sends pending, %.1f bytes each; want %d and at most %.0f", tc.name, n.Engine().Pending(), per, sends, tc.maxPer)
		}
		n.Run()
		if len(n.Errors()) != 0 || n.Delivered() != sends {
			t.Fatalf("%s: delivered %d of %d, errors %v", tc.name, n.Delivered(), sends, n.Errors())
		}
	}
}

// TestSmallNetworkBudget is the other end: most networks the experiment
// suite builds carry a few packets, and the queues must not cost them
// anything. New, ten sends from eight hosts and Run allocated 64 objects and
// 28 296 bytes before hosts had queues, which is the ceiling; 54 and 26 064
// with them (the hosts are one allocation, and no pool starts at 64).
func TestSmallNetworkBudget(t *testing.T) {
	const hosts, sends = 8, 10
	const maxObjects, maxBytes = 64, 28296
	round := func() {
		n, err := netsim.New(netsim.DefaultConfig(hosts), &bounceSwitch{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sends; i++ {
			n.SendAt(i%hosts, idPkt(i%hosts, (i+1)%hosts, uint32(i)), sim.Time(i)*sim.Microsecond)
		}
		n.Run()
		if len(n.Errors()) != 0 || n.Delivered() != sends {
			t.Fatalf("delivered %d of %d, errors %v", n.Delivered(), sends, n.Errors())
		}
	}
	round()
	objects, bytes := heapCost(round)
	t.Logf("%d objects, %d bytes", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("a %d-packet network allocates %d objects and %d bytes, want at most %d and %d", sends, objects, bytes, maxObjects, maxBytes)
	}
}
