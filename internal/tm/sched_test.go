package tm

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func cfPkt(coflow uint32, payload int) *packet.Packet {
	return packet.BuildRaw(packet.Header{DstPort: 1, CoflowID: coflow}, payload)
}

func TestFIFORankIsArrivalOrder(t *testing.T) {
	s := NewScheduler(0, FIFORank())
	var pkts []*packet.Packet
	for i := 0; i < 5; i++ {
		p := cfPkt(uint32(i), i)
		pkts = append(pkts, p)
		s.Enqueue(p)
	}
	for i := 0; i < 5; i++ {
		p, ok := s.Dequeue()
		if !ok || p != pkts[i] {
			t.Fatalf("position %d: wrong packet", i)
		}
	}
}

func TestSchedulerCapacity(t *testing.T) {
	s := NewScheduler(1, FIFORank())
	if !s.Enqueue(cfPkt(1, 0)) {
		t.Fatal("first enqueue failed")
	}
	if s.Enqueue(cfPkt(2, 0)) {
		t.Error("enqueue beyond capacity accepted")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestNewSchedulerPanicsOnNilRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil rank accepted")
		}
	}()
	NewScheduler(0, nil)
}

func TestSCFShortCoflowOvertakes(t *testing.T) {
	// Coflow 1 is bulky (1 MB), coflow 2 tiny (200 B). Even though the
	// bulky coflow's packets arrive first, the tiny coflow drains first.
	scf := NewSCFState(map[uint32]uint64{1: 1 << 20, 2: 200})
	s := NewScheduler(0, scf.Rank())
	for i := 0; i < 3; i++ {
		s.Enqueue(cfPkt(1, 500))
	}
	s.Enqueue(cfPkt(2, 50))
	s.Enqueue(cfPkt(2, 50))
	var order []uint32
	for {
		p, ok := s.Dequeue()
		if !ok {
			break
		}
		var d packet.Decoded
		d.DecodePacket(p)
		order = append(order, d.Base.CoflowID)
	}
	if len(order) != 5 {
		t.Fatalf("drained %d", len(order))
	}
	if order[0] != 2 || order[1] != 2 {
		t.Errorf("short coflow did not overtake: %v", order)
	}
}

func TestSCFUnknownCoflowRanksLast(t *testing.T) {
	scf := NewSCFState(map[uint32]uint64{1: 100})
	s := NewScheduler(0, scf.Rank())
	s.Enqueue(cfPkt(99, 10)) // unknown
	s.Enqueue(cfPkt(1, 10))
	p, _ := s.Dequeue()
	var d packet.Decoded
	d.DecodePacket(p)
	if d.Base.CoflowID != 1 {
		t.Error("known coflow should beat unknown")
	}
}

func TestSCFRemainingDecreases(t *testing.T) {
	scf := NewSCFState(map[uint32]uint64{1: 1000})
	rank := scf.Rank()
	r1 := rank(cfPkt(1, 100))
	r2 := rank(cfPkt(1, 100))
	if r2 >= r1 {
		t.Errorf("remaining did not decrease: %d then %d", r1, r2)
	}
	// Draining below zero clamps.
	for i := 0; i < 20; i++ {
		rank(cfPkt(1, 100))
	}
	if got := rank(cfPkt(1, 100)); got != 0 {
		t.Errorf("exhausted coflow rank = %d, want 0", got)
	}
}

func TestSTFQFairShares(t *testing.T) {
	// Two equal-weight flows with a backlog: dequeues must interleave
	// ~1:1 even though flow 1's packets all arrived first.
	flowOf := func(p *packet.Packet) uint64 {
		var d packet.Decoded
		if err := d.DecodePacket(p); err != nil {
			return 0
		}
		return uint64(d.Base.CoflowID)
	}
	q := NewSTFQ(flowOf, func(uint64) uint64 { return 1 })
	s := NewSTFQScheduler(0, q)
	for i := 0; i < 8; i++ {
		s.Enqueue(cfPkt(1, 100))
	}
	for i := 0; i < 8; i++ {
		s.Enqueue(cfPkt(2, 100))
	}
	// First 8 dequeues: flows should alternate closely (≥3 of each).
	counts := map[uint32]int{}
	for i := 0; i < 8; i++ {
		p, ok := s.Dequeue()
		if !ok {
			t.Fatal("early empty")
		}
		var d packet.Decoded
		d.DecodePacket(p)
		counts[d.Base.CoflowID]++
	}
	if counts[1] < 3 || counts[2] < 3 {
		t.Errorf("unfair first window: %v", counts)
	}
}

func TestSTFQWeights(t *testing.T) {
	flowOf := func(p *packet.Packet) uint64 {
		var d packet.Decoded
		if err := d.DecodePacket(p); err != nil {
			return 0
		}
		return uint64(d.Base.CoflowID)
	}
	// Flow 1 has weight 3, flow 2 weight 1 → flow 1 gets ~3× the service.
	q := NewSTFQ(flowOf, func(f uint64) uint64 {
		if f == 1 {
			return 3
		}
		return 1
	})
	s := NewSTFQScheduler(0, q)
	for i := 0; i < 30; i++ {
		s.Enqueue(cfPkt(1, 100))
		s.Enqueue(cfPkt(2, 100))
	}
	counts := map[uint32]int{}
	for i := 0; i < 20; i++ {
		p, _ := s.Dequeue()
		var d packet.Decoded
		d.DecodePacket(p)
		counts[d.Base.CoflowID]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("weighted ratio = %.2f (%v), want ≈3", ratio, counts)
	}
}

func TestNewSTFQPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil extractors accepted")
		}
	}()
	NewSTFQ(nil, nil)
}

// Property: any rank function drains a Scheduler completely and in
// non-decreasing rank order.
func TestSchedulerDrainProperty(t *testing.T) {
	f := func(payloads []uint8) bool {
		scf := NewSCFState(map[uint32]uint64{1: 10000, 2: 5000, 3: 100})
		s := NewScheduler(0, scf.Rank())
		for i, pl := range payloads {
			s.Enqueue(cfPkt(uint32(i%3+1), int(pl)))
		}
		n := 0
		for {
			_, ok := s.Dequeue()
			if !ok {
				break
			}
			n++
		}
		return n == len(payloads) && s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSTFQEnqueueDequeue(b *testing.B) {
	flowOf := func(p *packet.Packet) uint64 { return uint64(p.WireLen() % 8) }
	q := NewSTFQ(flowOf, func(uint64) uint64 { return 1 })
	s := NewSTFQScheduler(0, q)
	pkt := cfPkt(1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Enqueue(pkt)
		if i%2 == 1 {
			s.Dequeue()
		}
	}
}
