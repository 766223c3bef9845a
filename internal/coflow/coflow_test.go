package coflow

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTrackerCompletion(t *testing.T) {
	tr := NewTracker()
	tr.Expect(1, 3)
	tr.Send(1, 100, 1000)
	tr.Send(1, 150, 1000)
	tr.Deliver(1, 200, 500)
	tr.Deliver(1, 300, 500)
	if tr.Done(1) {
		t.Error("done before expected deliveries")
	}
	tr.Deliver(1, 450, 500)
	if !tr.Done(1) {
		t.Error("not done after expected deliveries")
	}
	s := tr.Status(1)
	if s.CCT() != 350 {
		t.Errorf("CCT = %v, want 350 (450-100)", s.CCT())
	}
	if s.SentPkts != 2 || s.DeliverPkts != 3 {
		t.Errorf("counts: %+v", s)
	}
	if s.SentBytes != 2000 || s.DeliverBytes != 1500 {
		t.Errorf("bytes: %+v", s)
	}
}

func TestTrackerUnknownExpectationNeverDone(t *testing.T) {
	tr := NewTracker()
	tr.Send(9, 1, 10)
	tr.Deliver(9, 2, 10)
	if tr.Done(9) {
		t.Error("coflow with no expectation reported done")
	}
	if tr.Done(404) {
		t.Error("never-seen coflow reported done")
	}
	if tr.Status(404) != nil {
		t.Error("Status of unseen coflow non-nil")
	}
}

func TestTrackerDropsAndConservation(t *testing.T) {
	tr := NewTracker()
	tr.Send(1, 0, 100)
	tr.Send(1, 0, 100)
	tr.Drop(1)
	tr.Deliver(1, 10, 100)
	if err := tr.CheckConservation(0); err != nil {
		t.Errorf("conservation violated: %v", err)
	}
	// Deliver more than sent without allowance → violation.
	tr2 := NewTracker()
	tr2.Send(2, 0, 1)
	tr2.Deliver(2, 1, 1)
	tr2.Deliver(2, 2, 1)
	if err := tr2.CheckConservation(0); err == nil {
		t.Error("over-delivery not caught")
	}
	if err := tr2.CheckConservation(1); err != nil {
		t.Errorf("allowance not honored: %v", err)
	}
}

func TestTrackerIDs(t *testing.T) {
	tr := NewTracker()
	tr.Send(1, 0, 1)
	tr.Send(7, 0, 1)
	ids := tr.IDs()
	if len(ids) != 2 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestTrackerFirstSendMin(t *testing.T) {
	tr := NewTracker()
	tr.Send(1, 500, 1)
	tr.Send(1, 100, 1)
	tr.Deliver(1, 600, 1)
	if got := tr.Status(1).FirstSend; got != 100 {
		t.Errorf("FirstSend = %v, want 100", got)
	}
}

// Property: tracker conservation holds for any interleaving of sends,
// drops, and deliveries where deliveries only follow sends.
func TestTrackerConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTracker()
		inFlight := 0
		now := sim.Time(0)
		for _, op := range ops {
			now++
			switch op % 3 {
			case 0:
				tr.Send(1, now, 10)
				inFlight++
			case 1:
				if inFlight > 0 {
					tr.Deliver(1, now, 10)
					inFlight--
				}
			case 2:
				if inFlight > 0 {
					tr.Drop(1)
					inFlight--
				}
			}
		}
		return tr.CheckConservation(0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CCT is non-negative whenever at least one send precedes a
// delivery.
func TestCCTNonNegativeProperty(t *testing.T) {
	f := func(sendAt, gap uint16) bool {
		tr := NewTracker()
		tr.Expect(1, 1)
		s := sim.Time(sendAt)
		tr.Send(1, s, 1)
		tr.Deliver(1, s+sim.Time(gap), 1)
		return tr.Status(1).CCT() >= 0 && tr.Done(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- fault-accounting tests (lost / retransmitted / duplicate) ---

func TestTrackerLossRetransmitAccounting(t *testing.T) {
	tr := NewTracker()
	// A packet is sent, its first attempt is lost, it is retransmitted and
	// delivered; a spurious second retransmission is suppressed as a
	// duplicate before the switch.
	tr.Send(1, 10, 100)
	tr.Lose(1)
	tr.Retransmit(1)
	tr.Deliver(1, 50, 100)
	tr.Retransmit(1)
	tr.Duplicate(1)
	s := tr.Status(1)
	if s.LostPkts != 1 || s.RetransmitPkts != 2 || s.DuplicatePkts != 1 {
		t.Fatalf("lost/retx/dup = %d/%d/%d", s.LostPkts, s.RetransmitPkts, s.DuplicatePkts)
	}
	if err := tr.CheckConservation(0); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestConservationAllowsRetransmittedDeliveries(t *testing.T) {
	tr := NewTracker()
	// The switch replicates: 1 send, 2 retransmissions, 3 deliveries. With
	// no generated allowance this is only conserved because retransmitted
	// copies count toward the delivery bound.
	tr.Send(2, 0, 64)
	tr.Retransmit(2)
	tr.Retransmit(2)
	tr.Deliver(2, 5, 64)
	tr.Deliver(2, 6, 64)
	tr.Deliver(2, 7, 64)
	if err := tr.CheckConservation(0); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	// One more delivery exceeds every explicable source.
	tr.Deliver(2, 8, 64)
	if err := tr.CheckConservation(0); err == nil {
		t.Fatal("over-delivery conserved")
	}
}

func TestInvariantDuplicatesNeedRetransmissions(t *testing.T) {
	tr := NewTracker()
	tr.Send(3, 0, 64)
	tr.Duplicate(3)
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("duplicate without retransmission passed invariants")
	}
	tr.Retransmit(3)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestInvariantDoneRequiresDeliveries(t *testing.T) {
	tr := NewTracker()
	tr.Expect(4, 2)
	tr.Send(4, 0, 64)
	tr.Deliver(4, 1, 64)
	tr.Deliver(4, 2, 64)
	if !tr.Done(4) {
		t.Fatal("coflow not done")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Corrupt the status to simulate a bookkeeping bug: done with fewer
	// deliveries than expected must be caught.
	tr.Status(4).DeliverPkts = 1
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("done-without-deliveries passed invariants")
	}
}

func TestInvariantDeliverOnlyCoflowExempt(t *testing.T) {
	tr := NewTracker()
	// Switch-generated results: deliveries with no sends. FirstSend stays
	// at the sentinel, which must not trip the time-ordering invariant.
	tr.Deliver(5, 100, 64)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestConservationUnderDropsWithRetx(t *testing.T) {
	tr := NewTracker()
	// Exhausted retry budget: sent, lost repeatedly, finally dropped.
	tr.Send(6, 0, 64)
	for i := 0; i < 3; i++ {
		tr.Lose(6)
		tr.Retransmit(6)
	}
	tr.Lose(6)
	tr.Drop(6)
	s := tr.Status(6)
	if s.DroppedPkts != 1 || s.LostPkts != 4 || s.RetransmitPkts != 3 {
		t.Fatalf("drop/lost/retx = %d/%d/%d", s.DroppedPkts, s.LostPkts, s.RetransmitPkts)
	}
	if err := tr.CheckConservation(0); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}
