package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// admitLogSwitch absorbs every packet, charges it the traversal cost its
// coflow id maps to, and logs when Process ran — the admission instant.
type admitLogSwitch struct {
	now        func() sim.Time
	cost       func(id uint32) uint64
	traversals uint64
	log        []admitRec
}

type admitRec struct {
	id uint32
	at sim.Time
}

func (s *admitLogSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	id := d.Base.CoflowID
	s.traversals += s.cost(id)
	s.log = append(s.log, admitRec{id, s.now()})
	return nil, nil
}

func (s *admitLogSwitch) IngressTraversals() uint64 { return s.traversals }

// admitSend is one packet of an admission scenario; its index + 1 is the
// coflow id the log identifies it by.
type admitSend struct {
	src int
	at  sim.Time
}

// runAdmission plays the sends through a network around a logging switch
// and returns the admission log.
func runAdmission(t *testing.T, cfg Config, sends []admitSend, cost func(id uint32) uint64) []admitRec {
	t.Helper()
	sw := &admitLogSwitch{cost: cost}
	n, err := New(cfg, sw)
	if err != nil {
		t.Fatal(err)
	}
	sw.now = n.Now
	for i, s := range sends {
		n.SendAt(s.src, rawPkt(s.src, 0, i+1), s.at)
	}
	n.Run()
	if len(n.Errors()) != 0 || len(sw.log) != len(sends) {
		t.Fatalf("errors %v; %d of %d packets admitted", n.Errors(), len(sw.log), len(sends))
	}
	return sw.log
}

// TestAdmissionFIFOOnTies pins the tie rule: a packet that reaches the
// switch in the exact picosecond it frees queues behind everyone already
// waiting, whether its arrival event sorts before the wake-up (posted early,
// from a long link) or after it (posted late, from a short one).
func TestAdmissionFIFOOnTies(t *testing.T) {
	const us = sim.Microsecond
	unit := func(uint32) uint64 { return 1 }
	for _, prop := range []sim.Time{500 * sim.Nanosecond, 0} {
		cfg := Config{Hosts: 4, LinkGbps: 100, PropDelay: prop, ServiceRatePPS: 1e6}
		// Packet 1 occupies the switch for 1 µs from its arrival; 2 and 3
		// arrive meanwhile and wait; 4 arrives exactly as the switch frees.
		sends := []admitSend{{0, 0}, {1, us / 4}, {2, us / 2}, {3, us}}
		log := runAdmission(t, cfg, sends, unit)
		first := log[0].at
		for i, r := range log {
			if want := first + sim.Time(i)*us; r.id != uint32(i+1) || r.at != want {
				t.Errorf("prop %v: admission %d is packet %d at %v, want packet %d at %v",
					prop, i, r.id, r.at, i+1, want)
			}
		}
	}
}

// TestAdmissionMatchesSingleServerQueue checks the service-rate model
// against its definition on random bursts: in order of arrival at the switch
// (taken from the same burst through an infinitely fast switch, which admits
// on arrival), every packet is admitted at the Lindley recurrence
// admit_i = max(arrive_i, free_{i-1}), free_i = admit_i + cost_i·perTraversal.
// Send times sit on the service-time grid, so arrivals from equal links tie
// with the instants the switch frees.
func TestAdmissionMatchesSingleServerQueue(t *testing.T) {
	rates := []float64{4e6, 2e6, 1e6, 5e5}
	speeds := []float64{10, 40, 100}
	var ties, waits int
	for seed := uint64(0); seed < 300; seed++ {
		rng := sim.NewRNG(seed + 0xF1F0)
		hosts := 1 + rng.Intn(6)
		cfg := Config{Hosts: hosts, LinkGbps: 100, PropDelay: sim.Time(rng.Intn(3)) * 250 * sim.Nanosecond}
		if rng.Bernoulli(0.5) {
			cfg.PerHostGbps = make([]float64, hosts)
			for h := range cfg.PerHostGbps {
				cfg.PerHostGbps[h] = speeds[rng.Intn(len(speeds))]
			}
		}
		rate := rates[rng.Intn(len(rates))]
		per := sim.Time(1e12 / rate)
		pkts := 8 + rng.Intn(56)
		costs := make([]uint64, pkts)
		sends := make([]admitSend, pkts)
		for i := range sends {
			costs[i] = 1 + uint64(rng.Intn(3))
			// Offered load around 1: idle gaps and standing queues both occur.
			sends[i] = admitSend{src: rng.Intn(hosts), at: sim.Time(rng.Intn(2*pkts)) * per}
		}
		cost := func(id uint32) uint64 { return costs[id-1] }

		arrivals := runAdmission(t, cfg, sends, cost)
		cfg.ServiceRatePPS = rate
		got := runAdmission(t, cfg, sends, cost)
		var free sim.Time
		freed := map[sim.Time]bool{} // every instant the switch frees
		for i, a := range arrivals {
			admit := a.at
			if i > 0 && free > admit {
				admit = free
				waits++
			}
			if freed[a.at] {
				ties++
			}
			if got[i].id != a.id || got[i].at != admit {
				t.Fatalf("seed %d: admission %d is packet %d at %v, want packet %d (arrived %v) at %v",
					seed, i, got[i].id, got[i].at, a.id, a.at, admit)
			}
			free = admit + sim.Time(cost(a.id))*per
			freed[free] = true
		}
	}
	if ties == 0 || waits == 0 {
		t.Fatalf("scenarios exercised %d waits and %d ties: want some of each", waits, ties)
	}
	t.Logf("%d waits; %d arrivals tie with the switch freeing", waits, ties)
}
