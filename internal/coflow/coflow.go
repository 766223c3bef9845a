// Package coflow implements the coflow abstraction (Chowdhury & Stoica,
// HotNets '12) that the paper builds its argument on: a set of flows
// between interconnected servers that share application semantics, where
// the collective — not any individual flow — is the unit the application
// cares about. The package provides coflow descriptions and a completion
// tracker with conservation accounting.
package coflow

import (
	"fmt"

	"repro/internal/sim"
)

// FlowSpec describes one member flow of a coflow.
type FlowSpec struct {
	FlowID  uint32
	SrcHost int // sending host (attached to switch port of same index)
	DstHost int // receiving host; -1 when the switch computes the result
	Packets int
	Bytes   int // application bytes carried by the flow
}

// Coflow is a named set of flows plus the output scheme the application
// expects (which ports the result coflow targets).
type Coflow struct {
	ID    uint32
	Flows []FlowSpec
	// OutputHosts lists the hosts that must receive result data for the
	// coflow to complete (e.g. all workers for an all-reduce).
	OutputHosts []int
}

// Width returns the number of member flows.
func (c *Coflow) Width() int { return len(c.Flows) }

// TotalBytes returns the input bytes across member flows.
func (c *Coflow) TotalBytes() int {
	n := 0
	for _, f := range c.Flows {
		n += f.Bytes
	}
	return n
}

// TotalPackets returns the input packets across member flows.
func (c *Coflow) TotalPackets() int {
	n := 0
	for _, f := range c.Flows {
		n += f.Packets
	}
	return n
}

// SourceHosts returns the distinct sending hosts in flow order.
func (c *Coflow) SourceHosts() []int {
	seen := make(map[int]bool)
	var hosts []int
	for _, f := range c.Flows {
		if !seen[f.SrcHost] {
			seen[f.SrcHost] = true
			hosts = append(hosts, f.SrcHost)
		}
	}
	return hosts
}

// Broadcast builds the group-communication pattern: one source, a group of
// receivers, driven by switch-side replication.
func Broadcast(id uint32, src int, receivers []int, packets, bytes int) *Coflow {
	c := &Coflow{ID: id, OutputHosts: append([]int(nil), receivers...)}
	c.Flows = append(c.Flows, FlowSpec{FlowID: 0, SrcHost: src, DstHost: -1, Packets: packets, Bytes: bytes})
	return c
}

// Status is a coflow's completion state in the Tracker.
type Status struct {
	FirstSend    sim.Time
	LastDeliver  sim.Time
	SentPkts     int
	SentBytes    uint64
	DeliverPkts  int
	DeliverBytes uint64
	DroppedPkts  int
	// LostPkts counts transmission attempts destroyed by injected faults
	// (loss, corruption, down links, crashed hosts). Unlike DroppedPkts —
	// which is terminal — a lost attempt may be retransmitted and the
	// packet still delivered.
	LostPkts int
	// RetransmitPkts counts recovery retransmissions (uplink resends and
	// downlink redeliveries).
	RetransmitPkts int
	// DuplicatePkts counts duplicate copies suppressed before reaching the
	// switch program (a retransmitted copy whose original had arrived).
	DuplicatePkts int
	// ExpectedDeliveries: completion is declared when DeliverPkts reaches
	// this (set by Expect); 0 means "unknown, never complete".
	ExpectedDeliveries int
	Done               bool
}

// CCT returns the coflow completion time, valid once Done.
func (s *Status) CCT() sim.Time { return s.LastDeliver - s.FirstSend }

// Tracker records send/deliver/drop events per coflow and computes
// completion times.
type Tracker struct {
	coflows map[uint32]*Status

	// OnComplete, when non-nil, is invoked exactly once per coflow, from
	// the Deliver call that satisfies its expected delivery count. The
	// status is final for FirstSend/LastDeliver/CCT at that point.
	// Telemetry uses this to close the coflow's root span.
	OnComplete func(id uint32, s *Status)
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{coflows: make(map[uint32]*Status)}
}

func (t *Tracker) get(id uint32) *Status {
	s := t.coflows[id]
	if s == nil {
		s = &Status{FirstSend: sim.Forever}
		t.coflows[id] = s
	}
	return s
}

// Expect declares how many packet deliveries complete the coflow.
func (t *Tracker) Expect(id uint32, deliveries int) {
	t.get(id).ExpectedDeliveries = deliveries
}

// Send records a packet entering the network at time now.
func (t *Tracker) Send(id uint32, now sim.Time, bytes int) {
	s := t.get(id)
	if now < s.FirstSend {
		s.FirstSend = now
	}
	s.SentPkts++
	s.SentBytes += uint64(bytes)
}

// Deliver records a packet arriving at its destination host. The delivery
// that flips a coflow to Done fires the OnComplete hook (if set) exactly
// once, after the status is final.
func (t *Tracker) Deliver(id uint32, now sim.Time, bytes int) {
	s := t.get(id)
	s.DeliverPkts++
	s.DeliverBytes += uint64(bytes)
	if now > s.LastDeliver {
		s.LastDeliver = now
	}
	if s.ExpectedDeliveries > 0 && s.DeliverPkts >= s.ExpectedDeliveries && !s.Done {
		s.Done = true
		if t.OnComplete != nil {
			t.OnComplete(id, s)
		}
	}
}

// Drop records a packet terminally lost (switch error, hostless port,
// exhausted retry budget, or a fault with no recovery configured).
func (t *Tracker) Drop(id uint32) { t.get(id).DroppedPkts++ }

// Lose records a transmission attempt destroyed by an injected fault. The
// packet itself may still be delivered later via retransmission.
func (t *Tracker) Lose(id uint32) { t.get(id).LostPkts++ }

// Retransmit records one recovery retransmission (either leg).
func (t *Tracker) Retransmit(id uint32) { t.get(id).RetransmitPkts++ }

// Duplicate records a duplicate copy suppressed before the switch program.
func (t *Tracker) Duplicate(id uint32) { t.get(id).DuplicatePkts++ }

// Status returns the tracked state of a coflow (nil if never seen).
func (t *Tracker) Status(id uint32) *Status { return t.coflows[id] }

// Done reports whether the coflow has completed.
func (t *Tracker) Done(id uint32) bool {
	s := t.coflows[id]
	return s != nil && s.Done
}

// CheckConservation verifies that no tracked coflow delivered more packets
// than could exist: deliveries ≤ sends + retransmissions + switch-generated
// allowance. The allowance covers switch-side results (aggregation produces
// packets the hosts never sent); on a clean run RetransmitPkts is zero and
// the bound reduces to the classic deliveries ≤ sends + generated. It also
// applies the allowance-free invariants of CheckInvariants. It returns an
// error naming the first violating coflow.
func (t *Tracker) CheckConservation(generatedAllowance int) error {
	for id, s := range t.coflows {
		if s.DeliverPkts > s.SentPkts+s.RetransmitPkts+generatedAllowance {
			return fmt.Errorf("coflow %d: delivered %d > sent %d + retransmitted %d + generated %d",
				id, s.DeliverPkts, s.SentPkts, s.RetransmitPkts, generatedAllowance)
		}
	}
	return t.CheckInvariants()
}

// CheckInvariants verifies the allowance-free accounting invariants of
// every tracked coflow — the checks a harness can assert without knowing
// how many packets the switch generates:
//
//   - every suppressed duplicate stems from a retransmitted copy
//     (DuplicatePkts ≤ RetransmitPkts);
//   - a completed coflow really reached its delivery expectation;
//   - a coflow that both sent and delivered has FirstSend ≤ LastDeliver
//     (deliver-only coflows — purely switch-generated results — are exempt).
//
// netsim asserts this (plus its own exact packet ledger) at the end of
// every run.
func (t *Tracker) CheckInvariants() error {
	for id, s := range t.coflows {
		if s.DuplicatePkts > s.RetransmitPkts {
			return fmt.Errorf("coflow %d: %d duplicates > %d retransmissions",
				id, s.DuplicatePkts, s.RetransmitPkts)
		}
		if s.Done && s.ExpectedDeliveries > 0 && s.DeliverPkts < s.ExpectedDeliveries {
			return fmt.Errorf("coflow %d: done with %d of %d deliveries",
				id, s.DeliverPkts, s.ExpectedDeliveries)
		}
		if s.SentPkts > 0 && s.DeliverPkts > 0 && s.LastDeliver < s.FirstSend {
			return fmt.Errorf("coflow %d: delivered at %v before first send %v",
				id, s.LastDeliver, s.FirstSend)
		}
	}
	return nil
}

// IDs returns all tracked coflow ids (unordered).
func (t *Tracker) IDs() []uint32 {
	ids := make([]uint32, 0, len(t.coflows))
	for id := range t.coflows {
		ids = append(ids, id)
	}
	return ids
}
